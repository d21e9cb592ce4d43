(* churn: many seeded, distinct short programs on one kernel, each installed
   and then spawned once, with a few calls per site. Every site table is
   compiled and then dropped, most calls take the full-CMAC slow path, and a
   seeded share of the processes are tampered and must be denied. *)

open Oskernel

let program index = Printf.sprintf "churn%d" index
let compile ~seed index = Sut.compile (Gen.churn_program ~seed ~index)

(* Set-up creates the kernels and, as a user would before the first op,
   compiles and installs the first program: that of op [first], which then
   runs it without installing it again. *)
let setup ~seed ~policy:_ ~first:first_index (tl : Op.tally) =
  let files = Gen.churn_files ~seed in
  let ks = Op.kernels (Sut.put_files files) in
  let first =
    let img = compile ~seed first_index in
    (img, Sut.install ~program:(program first_index) img)
  in
  let installs = ref [] in
  let run_op ~tracer ?plan index =
    let program = program index in
    let img, installed =
      if index = first_index then (fst first, Some (snd first)) else (compile ~seed index, None)
    in
    let plan = if plan = None then Gen.churn_plan ~seed ~index else plan in
    let want = ref None in
    let op =
      Op.guarded (fun op ->
          op.Op.benign <- plan = None;
          let body () =
            let inst =
              match installed with
              | Some inst -> inst
              | None ->
                let inst =
                  Tracer.span tracer "install" (fun () ->
                      Sut.install ?policy:(Option.map (fun _ -> index) tracer) ~program img)
                in
                installs := inst.Sut.stats :: !installs;
                op.Op.op_ns <- inst.Sut.stats.Sut.install_ns;
                inst
            in
            let m =
              match plan with
              | Some plan -> Sut.tampering plan want (Op.monitor ks tracer)
              | None -> Op.monitor ks tracer
            in
            Kernel.set_monitor ks.Op.enforced (Some m);
            Sut.run ?tracer ks.Op.enforced ~program inst.Sut.image
          in
          let enf = Tracer.op tracer ~index body in
          Op.add_enforced op enf;
          match plan with
          | None ->
            let pl = Sut.run ks.Op.plain ~program (Sut.plto_baseline img) in
            Op.add_plain op pl;
            Op.check_benign op ~what:program ~enforced:enf ~plain:pl ()
          | Some plan ->
            Op.check_denied op
              ~what:(Printf.sprintf "%s tamper %s" program (Gen.tamper_name plan.Gen.tamper))
              ~want:!want ~enforced:enf ~got:(Sut.last_violation ks.Op.enforced))
    in
    op.Op.deny_want <- !want;
    (match op.Op.outcome with Op.Host_exn _ -> Op.renew tl ks | _ -> ());
    op
  in
  { Op.run_op; installs;
    start = (fun () -> Op.mark tl ks.Op.enforced);
    finish = (fun () -> Op.absorb tl ks.Op.enforced) }
