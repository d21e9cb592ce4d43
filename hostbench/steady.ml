(* steady: the seeded request-loop program, installed once and spawned as
   repeated sessions on one kernel. After the first trap at each site every
   call takes the fast paths, so the trap path dominates host time. *)

open Oskernel

let program = "steady"

(* Every [reinstall_every]th op also installs a program again, timed apart
   from the op, so install time is sampled across the whole run: in turn the
   server and six seeded variants of it with 3 to 9 files (Gen.steady). The
   variants spread the install samples out; with one program they would sit
   at the host's fast or slow level and a run's median would jump between
   the two. *)
let reinstall_every = 8
let variants = 7

(* Set-up generates, compiles and installs the server, builds its twin and
   creates both kernels. A set-up re-timed before op [first] sets up
   variant [first] instead, for the same reason. *)
let setup ~seed ~policy ~first (tl : Op.tally) =
  let spec = Gen.steady ~variant:first ~seed () in
  let img = Sut.compile spec.Gen.st_source in
  let inst = Sut.install ?policy:(if policy then Some 0 else None) ~program img in
  let plain_img = Sut.plto_baseline img in
  let ks = Op.kernels (Sut.put_files spec.Gen.st_files) in
  let installs = ref [] in
  let variant_imgs =
    Array.init variants (fun v ->
        if v = 0 then lazy img
        else lazy (Sut.compile (Gen.steady ~variant:v ~seed ()).Gen.st_source))
  in
  let run_op ~tracer ?plan index =
    if index mod reinstall_every = 0 then begin
      let turn = index / reinstall_every in
      let img = Lazy.force variant_imgs.(turn mod variants) in
      installs :=
        (Sut.install ?policy:(if policy then Some turn else None) ~program img).Sut.stats
        :: !installs
    end;
    let batch = Gen.steady_batch spec ~seed ~session:index in
    let want = ref None in
    let op =
      Op.guarded (fun op ->
          let m = Op.monitor ks tracer in
          let m = match plan with Some plan -> Sut.tampering plan want m | None -> m in
          Kernel.set_monitor ks.Op.enforced (Some m);
          let run_enforced () =
            Tracer.op tracer ~index (fun () ->
                Sut.run ?tracer ~stdin:batch ks.Op.enforced ~program inst.Sut.image)
          in
          match plan with
          | Some _ ->
            op.Op.benign <- false;
            let enf = run_enforced () in
            Op.add_enforced op enf;
            Op.check_denied op ~what:(Printf.sprintf "tampered session %d" index) ~want:!want
              ~enforced:enf ~got:(Sut.last_violation ks.Op.enforced)
          | None ->
            let run_plain () = Sut.run ~stdin:batch ks.Op.plain ~program plain_img in
            let enf, pl = Op.alternate index run_enforced run_plain in
            Op.add_enforced op enf;
            Op.add_plain op pl;
            Op.check_benign op ~what:(Printf.sprintf "session %d" index)
              ~expected:(Gen.steady_expected spec batch) ~enforced:enf ~plain:pl ())
    in
    op.Op.deny_want <- !want;
    (match op.Op.outcome with Op.Host_exn _ -> Op.renew tl ks | _ -> ());
    op
  in
  { Op.run_op; installs;
    start = (fun () -> Op.mark tl ks.Op.enforced);
    finish = (fun () -> Op.absorb tl ks.Op.enforced) }
