(* One benchmark op (a steady session or a churn process), the
   verdict of its correctness oracle, and the registry tally the per-layer
   ratios are taken from. *)

open Oskernel

type outcome =
  | Pass
  | Wrong of string     (* a wrong verdict or a wrong output *)
  | Host_exn of string  (* an exception escaped the system under test *)

type t = {
  mutable outcome : outcome;
  mutable benign : bool;       (* untampered: it has an unprotected twin *)
  mutable op_ns : int;         (* enforced side: install + spawn + run *)
  mutable enf_ns : int;        (* inside enforced Kernel.run *)
  mutable plain_ns : int;      (* inside unprotected Kernel.run *)
  mutable calls : int;
  mutable instrs : int;
  mutable plain_instrs : int;
  mutable model_enf : int;
  mutable model_plain : int;
  mutable verif_cycles : int;
  mutable minor_words : int;
  mutable minor_gcs : int;
  mutable killed : bool;       (* the enforced process was killed *)
  mutable deny_step : string option;  (* the step a deny named *)
  mutable deny_want : string option;  (* the step a tamper, once applied, must cause *)
}

let create () =
  { outcome = Pass; benign = true; op_ns = 0; enf_ns = 0; plain_ns = 0; calls = 0; instrs = 0;
    plain_instrs = 0; model_enf = 0; model_plain = 0; verif_cycles = 0; minor_words = 0;
    minor_gcs = 0; killed = false; deny_step = None; deny_want = None }

let fail t what = if t.outcome = Pass then t.outcome <- Wrong what

let add_enforced t (r : Sut.run) =
  t.op_ns <- t.op_ns + r.Sut.spawn_ns + r.Sut.run_ns;
  t.enf_ns <- t.enf_ns + r.Sut.run_ns;
  t.calls <- t.calls + r.Sut.calls;
  t.instrs <- t.instrs + r.Sut.instrs;
  t.model_enf <- t.model_enf + r.Sut.cycles;
  t.verif_cycles <- t.verif_cycles + r.Sut.verif_cycles;
  t.minor_words <- t.minor_words + r.Sut.minor_words;
  t.minor_gcs <- t.minor_gcs + r.Sut.minor_gcs;
  match r.Sut.stop with Svm.Machine.Killed _ -> t.killed <- true | _ -> ()

let add_plain t (r : Sut.run) =
  t.plain_ns <- t.plain_ns + r.Sut.run_ns;
  t.plain_instrs <- t.plain_instrs + r.Sut.instrs;
  t.model_plain <- t.model_plain + r.Sut.cycles

(* The benign oracle: exit status 0, and stdout equal to what the
   unprotected twin printed (and to [expected] when the workload can
   compute it independently). *)
let check_benign t ~what ?expected ~(enforced : Sut.run) ~(plain : Sut.run) () =
  (match enforced.Sut.stop with
   | Svm.Machine.Halted 0 -> ()
   | s -> fail t (Printf.sprintf "%s enforced: %s" what (Sut.stop_name s)));
  (match plain.Sut.stop with
   | Svm.Machine.Halted 0 -> ()
   | s -> fail t (Printf.sprintf "%s unprotected: %s" what (Sut.stop_name s)));
  if enforced.Sut.stdout <> plain.Sut.stdout then
    fail t (Printf.sprintf "%s: enforced stdout %S <> unprotected %S" what enforced.Sut.stdout
              plain.Sut.stdout);
  match expected with
  | Some e when e <> plain.Sut.stdout ->
    fail t (Printf.sprintf "%s: stdout %S <> expected %S" what plain.Sut.stdout e)
  | _ -> ()

(* The tamper oracle: the tamper found a trap to apply to ([want] is the
   step it implies), and the process was killed with a violation ([got]) at
   that step. *)
let check_denied t ~what ~want ~(enforced : Sut.run) ~got =
  t.deny_step <- got;
  match (enforced.Sut.stop, want, got) with
  | _, None, _ -> fail t (what ^ ": the tamper found no trap to apply to")
  | Svm.Machine.Killed _, Some want, Some step when step = want -> ()
  | stop, Some want, got ->
    fail t
      (Printf.sprintf "%s: want deny at %s, got %s (%s)" what want
         (Option.value got ~default:"no violation")
         (Sut.stop_name stop))

(* Run the enforced and the unprotected side of op [index], alternating
   which runs first, so neither always follows the other's garbage. *)
let alternate index enforced plain =
  if index land 1 = 0 then
    let e = enforced () in
    (e, plain ())
  else
    let p = plain () in
    (enforced (), p)

(* Run [f] on a fresh op; an exception out of it is a host exception. *)
let guarded f =
  let t = create () in
  (try f t with e -> t.outcome <- Host_exn (Printexc.to_string e));
  t

(* An instance: a workload set up on one seed, ready to run ops. *)
type instance = {
  run_op : tracer:Tracer.t option -> ?plan:Gen.plan -> int -> t;
      (* [plan] tampers the op (churn draws its own plans) *)
  installs : Sut.install_stats list ref;  (* the install-time samples taken so far *)
  start : unit -> unit;   (* measurement starts: mark the kernels in use *)
  finish : unit -> unit;  (* measurement ends: tally the kernels in use *)
}

(* ----- registry tally over every enforced kernel of a run ----- *)

let counters =
  [ "precomp.hits"; "precomp.resumes"; "precomp.misses"; "precomp.fallbacks";
    "precomp.compiles"; "cfpre.hits"; "cfpre.misses"; "cfpre.fallbacks"; "cfpre.compiles";
    "vcache.hits"; "vcache.misses"; "vcache.evictions"; "checker.cycles.call_mac";
    "checker.cycles.string_mac"; "checker.cycles.control_flow"; "checker.cycles.total" ]

type snapshot = { s_counters : int list; s_reasons : int array; s_traps : int }

type tally = {
  sums : (string, int) Hashtbl.t;
  reasons : int array;
  mutable traps : int;
  mutable unbalanced : int;  (* kernels whose reason counts did not sum to their traps *)
  mutable marks : (Kernel.t * snapshot) list;
}

let tally () =
  { sums = Hashtbl.create 32; reasons = Array.make Asc_obs.Telemetry.num_reasons 0; traps = 0;
    unbalanced = 0; marks = [] }

let snapshot kernel =
  { s_counters = List.map (Sut.counter kernel) counters;
    s_reasons =
      Array.copy (Asc_obs.Telemetry.aggregate (Kernel.telemetry kernel)).Asc_obs.Telemetry.t_reasons;
    s_traps = Kernel.syscall_count kernel }

(* Counts from now on are the ones [absorb] adds. *)
let mark tl kernel = tl.marks <- (kernel, snapshot kernel) :: tl.marks

(* Add what [kernel] counted since its mark (or since creation). A kernel
   that raised a host exception mid-trap may not balance, so the
   reason-sum invariant is checked only on [clean] kernels. *)
let absorb tl ?(clean = true) kernel =
  let now = snapshot kernel in
  let base = List.assq_opt kernel tl.marks in
  tl.marks <- List.filter (fun (k, _) -> k != kernel) tl.marks;
  let sub a i = match base with Some b -> a - List.nth b.s_counters i | None -> a in
  List.iteri
    (fun i name ->
      let v = sub (List.nth now.s_counters i) i in
      Hashtbl.replace tl.sums name (v + Option.value (Hashtbl.find_opt tl.sums name) ~default:0))
    counters;
  let traps = now.s_traps - match base with Some b -> b.s_traps | None -> 0 in
  let reasons_sum = ref 0 in
  Array.iteri
    (fun i v ->
      let d = v - match base with Some b -> b.s_reasons.(i) | None -> 0 in
      reasons_sum := !reasons_sum + d;
      tl.reasons.(i) <- tl.reasons.(i) + d)
    now.s_reasons;
  tl.traps <- tl.traps + traps;
  if clean && !reasons_sum <> traps then tl.unbalanced <- tl.unbalanced + 1

let sum tl name = Option.value (Hashtbl.find_opt tl.sums name) ~default:0

(* ----- the kernels a workload reuses across ops ----- *)

type kernels = {
  setup : Kernel.t -> unit;
  mutable enforced : Kernel.t;
  mutable plain : Kernel.t;  (* the unprotected twin *)
  mutable checker : Kernel.monitor;
}

let kernels setup =
  let enforced = Sut.kernel ~monitor:true setup in
  { setup; enforced; plain = Sut.kernel ~monitor:false setup;
    checker = Option.get enforced.Kernel.monitor }

(* The checker, timed from outside when the op is traced. *)
let monitor ks tracer =
  match tracer with Some t -> Tracer.wrap t ks.checker | None -> ks.checker

(* After a host exception the next op gets fresh kernels. *)
let renew tl ks =
  absorb tl ~clean:false ks.enforced;
  let fresh = kernels ks.setup in
  ks.enforced <- fresh.enforced;
  ks.plain <- fresh.plain;
  ks.checker <- fresh.checker;
  mark tl ks.enforced
