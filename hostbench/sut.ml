(* The system under test, driven only through its public functions: compile
   with Minic.Driver, install with Asc_core.Installer, run on an
   Oskernel.Kernel under the deployment monitor, and the unprotected
   PLTO-baseline image with no monitor on the same inputs. *)

open Oskernel

let key = Asc_crypto.Cmac.of_raw "bench-master-key"
let personality = Personality.linux
let max_cycles = 4_000_000_000
(* Every end-to-end timing is the CPU time of the benchmark's thread: it
   counts the system's work (user and kernel time, page faults included)
   but not the time a busy host keeps the thread off the CPU, which would
   otherwise land on random ops. *)
let cpu_ns = Tracer.cpu_ns

let compile source =
  match Minic.Driver.compile ~personality source with
  | Ok img -> img
  | Error e -> failwith ("hostbench: generated program does not compile: " ^ e)

(* PLTO-optimized but unauthenticated: the paper's baseline binary. *)
let plto_baseline img =
  match Plto.Disasm.disassemble img with
  | Error e -> failwith e
  | Ok prog ->
    ignore (Plto.Inline.inline_stubs prog);
    ignore (Plto.Inline.split_multi_sys prog);
    ignore (Plto.Opt.remove_unreachable prog);
    (match Plto.Emit.emit prog with Ok (img', _) -> img' | Error e -> failwith e)

(* The deployment configuration: the checker with the verified-MAC cache,
   the precompiled-site table and the control-flow bitsets all armed. *)
let deployment_monitor kernel =
  let registry = Kernel.metrics kernel in
  let vcache = Asc_core.Vcache.create ~capacity:1024 ~registry () in
  let precomp = Asc_core.Precomp.create ~key ~registry () in
  let cfpre = Asc_core.Cfpre.create ~registry () in
  Asc_core.Checker.monitor ~kernel ~key ~vcache ~precomp ~cfpre ()

(* One installation, timed. With [policy = turn], a separate
   [generate_policy] call is timed too, before the install on an even turn
   and after it on an odd one, so neither call always runs with the other's
   data in the caches. It is made only when the installer's layers are
   being traced, since [install] repeats the same analysis. *)
type install_stats = { install_ns : int; policy_ns : int option; sites : int; asc_bytes : int }
type install = { image : Svm.Obj_file.t; stats : install_stats }

let install ?policy ~program img =
  let time_policy () =
    let t0 = cpu_ns () in
    (match Asc_core.Installer.generate_policy ~personality ~program img with
     | Ok _ -> ()
     | Error e -> failwith (program ^ ": " ^ e));
    cpu_ns () - t0
  in
  let before = match policy with Some turn when turn land 1 = 0 -> Some (time_policy ()) | _ -> None in
  let t0 = cpu_ns () in
  match Asc_core.Installer.install ~key ~personality ~program img with
  | Error e -> failwith (program ^ ": " ^ e)
  | Ok inst ->
    let install_ns = cpu_ns () - t0 in
    let policy_ns =
      match (policy, before) with
      | Some _, Some ns -> Some ns
      | Some _, None -> Some (time_policy ())
      | None, _ -> None
    in
    { image = inst.Asc_core.Installer.image;
      stats =
        { install_ns; policy_ns; sites = inst.Asc_core.Installer.sites;
          asc_bytes = inst.Asc_core.Installer.asc_bytes } }

let put_files files kernel =
  List.iter
    (fun (path, contents) ->
      Vfs.mkdir_p kernel.Kernel.vfs (Filename.dirname path);
      match Vfs.create_file kernel.Kernel.vfs ~cwd:"/" path ~contents with
      | Ok () -> ()
      | Error e -> failwith (path ^ ": " ^ Errno.name e))
    files

(* A fresh kernel with its inputs in place, under the deployment monitor
   or, for the unprotected twin, under none. *)
let kernel ~monitor setup =
  let k = Kernel.create ~personality () in
  setup k;
  if monitor then Kernel.set_monitor k (Some (deployment_monitor k));
  k

(* ----- one run of one image ----- *)

type run = {
  stop : Svm.Machine.stop;
  stdout : string;
  run_ns : int;
  spawn_ns : int;
  calls : int;        (* traps taken, every one seen by the monitor *)
  instrs : int;
  cycles : int;       (* modeled cycles (Svm.Cost_model) *)
  verif_cycles : int; (* modeled verification cycles: checker.cycles.total *)
  minor_words : int;
  minor_gcs : int;
}

let counter kernel name =
  match Asc_obs.Metrics.value (Kernel.metrics kernel) name with Some v -> v | None -> 0

let run ?tracer ?(stdin = "") kernel ~program image =
  let t0 = cpu_ns () in
  let p = Tracer.span tracer "spawn" (fun () -> Kernel.spawn kernel ~stdin ~program image) in
  let t1 = cpu_ns () in
  let calls0 = Kernel.syscall_count kernel and verif0 = counter kernel "checker.cycles.total" in
  let gcs0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Asc_obs.Profile.minor_words () in
  let t2 = cpu_ns () in
  let stop = Tracer.run tracer (fun () -> Kernel.run kernel p ~max_cycles) in
  let t3 = cpu_ns () in
  let minor_words = Asc_obs.Profile.minor_words () - w0 in
  let m = p.Process.machine in
  { stop; stdout = Kernel.stdout_of p; run_ns = t3 - t2; spawn_ns = t1 - t0;
    calls = Kernel.syscall_count kernel - calls0; instrs = m.Svm.Machine.instrs;
    cycles = m.Svm.Machine.cycles; verif_cycles = counter kernel "checker.cycles.total" - verif0;
    minor_words; minor_gcs = (Gc.quick_stat ()).Gc.minor_collections - gcs0 }

(* The violation step of the most recent deny on [kernel], if any; clears
   the audit ring so the next op starts from an empty one. *)
let last_violation kernel =
  let step =
    List.fold_left
      (fun acc e ->
        match e with
        | Kernel.Violation { violation; _ } -> Some (Violation.step_name violation.Violation.v_step)
        | _ -> acc)
      None (Kernel.audit_log kernel)
  in
  Kernel.clear_audit kernel;
  step

let stop_name = function
  | Svm.Machine.Halted c -> Printf.sprintf "halted %d" c
  | Svm.Machine.Killed r -> "killed: " ^ r
  | Svm.Machine.Faulted _ -> "faulted"
  | Svm.Machine.Cycle_limit -> "cycle limit"

(* ----- tampering at a trap ----- *)

let flip (m : Svm.Machine.t) addr mask =
  match Svm.Machine.read_byte m addr with
  | Some b -> Svm.Machine.write_byte m addr (b lxor mask)
  | None -> false

let as_len (m : Svm.Machine.t) ptr =
  let b i = Option.value (Svm.Machine.read_byte m (ptr - 20 + i)) ~default:0 in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* Registers the checker consumes at a trap with descriptor [d]: r7 and
   r8 and r11 always, r9/r10 with a control-flow policy, r14 with an
   extension block. *)
let consumed_regs d =
  [ 7; 8; 11 ]
  @ (if Asc_core.Descriptor.has_control_flow d then [ 9; 10 ] else [])
  @ if Asc_core.Descriptor.has_ext d then [ 14 ] else []

(* Apply the tamper to the trapping process if it applies at this trap;
   return the violation step it must cause, or [None] to try a later
   trap. *)
let apply_tamper (plan : Gen.plan) (p : Process.t) =
  let m = p.Process.machine in
  let r = m.Svm.Machine.regs in
  let d = r.(7) in
  let cf = Asc_core.Descriptor.has_control_flow d in
  let byte_of ptr len j = len > 0 && flip m (ptr + (j mod len)) plan.Gen.mask in
  match plan.Gen.tamper with
  | Gen.Call_mac_byte j -> if flip m (r.(11) + (j mod 16)) plan.Gen.mask then Some "call_mac" else None
  | Gen.String_byte j ->
    (match Asc_core.Descriptor.string_args d with
     | i :: _ -> if byte_of r.(i + 1) (as_len m r.(i + 1)) j then Some "string_mac" else None
     | [] -> None)
  | Gen.Predset_byte j ->
    if cf && byte_of r.(9) (as_len m r.(9)) j then Some "control_flow" else None
  | Gen.Lbmac_byte j -> if cf && byte_of (r.(10) + 8) 16 j then Some "control_flow" else None
  | Gen.Hostile_reg (pick, v) ->
    let regs = consumed_regs d in
    let reg = List.nth regs (pick mod List.length regs) in
    let v = if v = r.(reg) then v lxor 1 else v in
    r.(reg) <- v;
    if reg = 7 && not (Asc_core.Descriptor.is_authenticated v) then Some "unauthenticated"
    else Some "call_mac"

(* [tampering plan expected m] applies [plan] at the first trap at or after
   [plan.at_trap] where it applies, and sets [expected] to the step the
   deny must name. *)
let tampering (plan : Gen.plan) expected (m : Kernel.monitor) =
  let trap = ref 0 in
  let pre p ~site ~number =
    if !expected = None && !trap >= plan.Gen.at_trap then expected := apply_tamper plan p;
    incr trap;
    m.Kernel.pre_syscall p ~site ~number
  in
  { m with Kernel.pre_syscall = pre }
