(* Shared harness for the fast-path suites (test_vcache, test_precomp,
   test_cfpre, test_sitetab, test_deployment). Each layer is a pure
   accelerator: a run with the layer armed alone must be observably
   identical to a slow-path run — exit status, stdout, syscall trace, audit
   verdicts — and the modeled cycles it saves must be exactly its
   [<layer>.cycles_saved] gauge. The lifecycle tests
   take the layer as their parameter; the two differential properties take
   a configuration: one layer alone, or the deployment stack (all three
   armed, saving exactly the sum of the three gauges). *)

open Oskernel
module Cmac = Asc_crypto.Cmac

type layer = Asc_core.Checker.layer =
  | Vcache
  | Precomp
  | Cfpre

let name = Asc_core.Checker.layer_name

type config =
  | Only of layer
  | Deployment

let config_name = function Only layer -> name layer | Deployment -> "deployment"
let key = Cmac.of_raw "fastpath-testkey"
let personality = Personality.linux

let install ?(program_id = 1) ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match
    Asc_core.Installer.install ~key ~personality
      ~options:{ Asc_core.Installer.default_options with program_id }
      ~program img
  with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> Alcotest.failf "install %s: %s" program e

(* the checker armed as [config], or the slow path without one *)
let monitor ?config ?capacity kernel =
  let registry = Kernel.metrics kernel in
  match config with
  | None -> Asc_core.Checker.monitor ~kernel ~key ()
  | Some Deployment -> Asc_core.Checker.deployment ~kernel ~key ()
  | Some (Only Vcache) ->
    Asc_core.Checker.monitor ~kernel ~key
      ~vcache:(Asc_core.Vcache.create ?capacity ~registry ())
      ()
  | Some (Only Precomp) ->
    Asc_core.Checker.monitor ~kernel ~key ~precomp:(Asc_core.Precomp.create ~key ~registry ()) ()
  | Some (Only Cfpre) -> Asc_core.Checker.monitor ~kernel ~key ~cfpre:(Asc_core.Cfpre.create ~registry ()) ()

let run_image ?config ?capacity ?(setup = fun _ -> ()) image =
  let kernel = Kernel.create ~personality () in
  kernel.Kernel.tracing <- true;
  Kernel.set_monitor kernel (Some (monitor ?config ?capacity kernel));
  setup kernel;
  let proc = Kernel.spawn kernel ~program:"ft" image in
  let stop = Kernel.run kernel proc ~max_cycles:200_000_000 in
  (kernel, proc, stop)

(* a counter or gauge in [registry], by full name *)
let count registry name = Option.value ~default:0 (Asc_obs.Metrics.value registry name)

(* one of the layer's published counters or gauges *)
let metric kernel layer field = count (Kernel.metrics kernel) (name layer ^ "." ^ field)

(* the [size] or [invalidations] of where the layer keeps its entries: the
   vcache's own LRU, or the site table the memo and the bitsets share *)
let entries kernel layer field =
  count (Kernel.metrics kernel) ((match layer with Vcache -> "vcache." | _ -> "sitetab.") ^ field)

(* For the unit suites: a site table, the memo and the bitsets that compile
   into its rows, all publishing in one fresh registry. *)
type table = {
  tab : Asc_core.Sitetab.t;
  pc : Asc_core.Precomp.t;
  cf : Asc_core.Cfpre.t;
  registry : Asc_obs.Metrics.registry;
}

let table () =
  let registry = Asc_obs.Metrics.create () in
  { tab = Asc_core.Sitetab.create ~registry ();
    pc = Asc_core.Precomp.create ~key ~registry ();
    cf = Asc_core.Cfpre.create ~registry ();
    registry }

(* a call at [site] with one constrained numeric argument *)
let const_call ?(site = 0x40) ?(block = 7) ?(cval = 42) () =
  { Asc_core.Encoded.e_number = 20; e_site = site;
    e_descriptor = Asc_core.Descriptor.(with_const_arg empty 1); e_block = block;
    e_const_args = [ (1, cval) ]; e_string_args = []; e_ext = None; e_control = None }

(* a machine holding the predecessor set [ids] at [addr], and its verified
   reference *)
let predset ?(addr = 0x100) ids =
  let m = Svm.Machine.create ~mem_size:4096 in
  let contents = Asc_core.Encoded.predset_contents ids in
  assert (Svm.Machine.write_mem m ~addr contents);
  let r =
    { Asc_core.Encoded.as_addr = addr; as_len = String.length contents;
      as_mac = Cmac.mac key contents }
  in
  (m, r, contents)

(* the modeled cycles the configuration's layers report saving *)
let cycles_saved kernel = function
  | Only layer -> metric kernel layer "cycles_saved"
  | Deployment ->
    List.fold_left (fun acc layer -> acc + metric kernel layer "cycles_saved") 0
      [ Vcache; Precomp; Cfpre ]

let cycles (p : Process.t) = p.Process.machine.Svm.Machine.cycles

(* ---- kernel-level lifecycle: execve and teardown invalidation ---- *)

let test_execve_invalidation layer () =
  (* A warms the layer, then execs B: A's entries were verified against an
     image that is gone, so the exec must drop them (and B then warms its
     own). The invalidations counter proves the drop happened. *)
  let b_img = install ~program_id:2 ~program:"progB" "int main() { getpid(); return 4; }" in
  let a_img =
    install ~program_id:1 ~program:"progA"
      {|
int main() {
  int k;
  for (k = 0; k < 5; k = k + 1) { getpid(); }
  execve("/bin/progB", 0, 0);
  return 1;
}
|}
  in
  let kernel, _, stop =
    run_image ~config:(Only layer)
      ~setup:(fun kernel -> Kernel.install_binary kernel ~path:"/bin/progB" b_img)
      a_img
  in
  (match stop with
   | Svm.Machine.Halted 4 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "execve chain did not reach B's exit");
  Alcotest.(check bool) "the loop hit the layer" true (metric kernel layer "hits" > 0);
  Alcotest.(check bool) "exec dropped the pid's entries" true
    (entries kernel layer "invalidations" > 0)

let test_teardown_invalidation layer () =
  (* process exit drops the pid's entries, so a later process that happens
     to get the same pid can never see this image's warm state *)
  let img =
    install ~program:"loop"
      "int main() { int k; for (k = 0; k < 8; k = k + 1) { getpid(); } return 0; }"
  in
  let kernel, _, stop = run_image ~config:(Only layer) img in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | _ -> Alcotest.fail "run did not halt cleanly");
  Alcotest.(check bool) "the run populated the layer" true (metric kernel layer "hits" > 0);
  Alcotest.(check int) "teardown left it empty" 0 (entries kernel layer "size")

let test_hot_loop_accounting layer () =
  (* with one layer armed, it is the only divergence from the slow path —
     so the cycles the run saves are exactly the cycles-saved gauge *)
  let img =
    install ~program:"hot"
      "int main() { int k; for (k = 0; k < 50; k = k + 1) { getpid(); } return 0; }"
  in
  let _, p_off, _ = run_image img in
  let k_on, p_on, _ = run_image ~config:(Only layer) img in
  let off = cycles p_off and on = cycles p_on in
  Alcotest.(check bool) "the layer saves cycles" true (on < off);
  Alcotest.(check int) "savings fully accounted" (off - on) (metric k_on layer "cycles_saved")

let lifecycle_tests layer =
  [ Alcotest.test_case "execve invalidates the pid" `Quick (test_execve_invalidation layer);
    Alcotest.test_case "teardown empties the layer" `Quick (test_teardown_invalidation layer);
    Alcotest.test_case "hot loop savings accounted" `Quick (test_hot_loop_accounting layer) ]

(* ---- differential property: configuration on vs off on random programs ---- *)

let loop_counter = ref 0

let fresh () =
  incr loop_counter;
  Printf.sprintf "u%d" !loop_counter

(* Small terminating MiniC programs biased toward repeated syscalls (loops
   around call statements) so the layer actually gets traffic. *)
let gen_program =
  let open QCheck.Gen in
  let var i = Printf.sprintf "v%d" (i mod 3) in
  let gen_call =
    let* c = int_bound 5 in
    let u = fresh () in
    return
      (match c with
       | 0 -> "getpid();"
       | 1 -> "write(1, \"ab\", 2);"
       | 2 ->
         Printf.sprintf
           "{ int f%s = open(\"/tmp/v\", 65, 420); if (f%s >= 0) { write(f%s, \"y\", 1); close(f%s); } }"
           u u u u
       | 3 -> "access(\"/etc/q\", 4);"
       | 4 -> Printf.sprintf "{ char t%s[16]; gettimeofday(t%s, 0); }" u u
       | _ -> "puts_str(\"t\\n\");")
  in
  let gen_stmt =
    oneof
      [ (let* i = int_bound 2 in
         let* v = int_bound 999 in
         return (Printf.sprintf "%s = %s + %d;" (var i) (var ((i + 1) mod 3)) v));
        gen_call;
        (let* body = gen_call in
         let k = fresh () in
         return
           (Printf.sprintf "{ int %s; for (%s = 0; %s < 4; %s = %s + 1) { %s } }" k k k k k
              body)) ]
  in
  let* stmts = list_size (int_range 1 10) gen_stmt in
  return
    (Printf.sprintf "int v0; int v1; int v2;\nint main() {\n  %s\n  return v0 %% 100;\n}"
       (String.concat "\n  " stmts))

let arbitrary_program = QCheck.make ~print:(fun s -> s) gen_program

(* Everything a run observably did: how it stopped, what it printed, every
   trace entry, and the audit verdicts (violation steps only — forensic
   snapshots embed cycle counts, which legitimately differ between
   configurations). *)
let observed kernel (proc : Process.t) stop =
  let verdicts =
    List.filter_map
      (function
        | Kernel.Violation { violation = v; _ } -> Some ("v:" ^ Violation.step_name v.Violation.v_step)
        | Kernel.Denied { reason; _ } -> Some ("d:" ^ reason)
        | Kernel.Execve { path; _ } -> Some ("e:" ^ path)
        | Kernel.Alert _ -> None)
      (Kernel.audit_log kernel)
  in
  (stop, Kernel.stdout_of proc, Kernel.trace kernel, verdicts)

let prop_differential config =
  let n = config_name config in
  QCheck.Test.make ~name:(n ^ " on/off runs are observably identical") ~count:40
    arbitrary_program (fun src ->
      match Minic.Driver.compile ~personality src with
      | Error e -> QCheck.Test.fail_reportf "generated program does not compile: %s" e
      | Ok img ->
        (match Asc_core.Installer.install ~key ~personality ~program:"ft" img with
         | Error e -> QCheck.Test.fail_reportf "install failed: %s" e
         | Ok inst ->
           let image = inst.Asc_core.Installer.image in
           let k_off, p_off, stop_off = run_image image in
           let k_on, p_on, stop_on = run_image ~config image in
           if observed k_off p_off stop_off <> observed k_on p_on stop_on then
             QCheck.Test.fail_reportf "%s-on run diverged from %s-off" n n;
           (match stop_off with
            | Svm.Machine.Killed r -> QCheck.Test.fail_reportf "false alarm: %s" r
            | _ -> ());
           let off = cycles p_off and on = cycles p_on in
           if on > off then
             QCheck.Test.fail_reportf "%s-on run cost more cycles (%d > %d)" n on off;
           off - on = cycles_saved k_on config))

(* ---- differential property: mutations deny identically ---- *)

let fixed_victim =
  lazy
    (let src =
       {|
int main() {
  int k;
  for (k = 0; k < 3; k = k + 1) {
    int fd = open("/tmp/f", 65, 420);
    write(fd, "fuzzdata", 8);
    close(fd);
  }
  puts_str("done\n");
  return 0;
}
|}
     in
     let img = Minic.Driver.compile_exn ~personality src in
     match Asc_core.Installer.install ~key ~personality ~program:"fuzz" img with
     | Ok inst -> inst.Asc_core.Installer.image
     | Error e -> failwith e)

(* The property's input [(pos, byte)] overwrites one byte of the serialized
   victim past its 8-byte header. *)
let mutate (pos, byte) =
  let b = Bytes.of_string (Svm.Obj_file.serialize (Lazy.force fixed_victim)) in
  let pos = 8 + (pos * 131 mod (Bytes.length b - 8)) in
  Bytes.set b pos (Char.chr byte);
  Svm.Obj_file.parse (Bytes.to_string b)

let rdcyc_at bytes pos =
  match Svm.Isa.decode bytes ~pos with Some (Svm.Isa.Rdcyc _) -> true | _ -> false

let text_bytes img =
  match Svm.Obj_file.text_section img with
  | sec -> Bytes.of_string sec.Svm.Obj_file.sec_payload
  | exception Not_found -> Bytes.empty

(* Offsets of the [rdcyc] instructions of [text]. *)
let clock_reads text =
  let size = Svm.Isa.instr_size in
  List.filter (rdcyc_at text) (List.init (Bytes.length text / size) (fun i -> i * size))

(* The fast paths charge fewer modeled cycles by design, so a mutation that
   turns an instruction into [rdcyc] lets the program observe the
   configuration through the clock (mutation (2, 56): the cycle count
   became a write length). Such a mutant has no configuration-independent
   behavior to compare. It is recognised by an [rdcyc] instruction whose
   bytes differ from the victim's at the same offset. A mutated jump into
   the middle of an instruction can still decode one unseen; that shows
   as a failing case, never as a skipped one. *)
let mutation_reads_clock img =
  let victim = text_bytes (Lazy.force fixed_victim) and size = Svm.Isa.instr_size in
  List.exists
    (fun pos ->
      pos + size > Bytes.length victim
      || Bytes.sub (text_bytes img) pos size <> Bytes.sub victim pos size)
    (clock_reads (text_bytes img))

(* Cycles a mutant may run. Of all 25,600 inputs the property can draw,
   the slowest that stops on its own faults after 188,428,605 cycles (the
   victim halts after 64,386), so a lower budget would stop comparing it;
   39 mutants still run at 200M. *)
let mutant_budget = 200_000_000

let run_mutated ?config img =
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (monitor ?config kernel));
  match Kernel.spawn kernel ~program:"mut" img with
  | exception Invalid_argument _ -> None (* image refused before any code ran *)
  | proc ->
    let stop = Kernel.run kernel proc ~max_cycles:mutant_budget in
    let steps =
      List.filter_map
        (function
          | Kernel.Violation { violation = v; _ } -> Some (Violation.step_name v.Violation.v_step)
          | _ -> None)
        (Kernel.audit_log kernel)
    in
    Some (stop, Kernel.stdout_of proc, steps)

(* Of the 200 cases, at most this many may be clock-reading mutants (a
   random byte makes one about once in a few hundred cases); more means the
   property is no longer checking what it says. *)
let max_clock_skips = 5

let prop_mutation_deny_parity ~skipped config =
  let n = config_name config in
  QCheck.Test.make ~name:("mutations trip identical verdicts " ^ n ^ " on/off") ~count:200
    QCheck.(pair small_nat (int_bound 255))
    (fun input ->
      match mutate input with
      | Error _ -> true (* corrupt image rejected at parse time *)
      | Ok img when mutation_reads_clock img ->
        incr skipped;
        true
      | Ok img ->
        (match (run_mutated img, run_mutated ~config img) with
         | None, None -> true
         | Some (Svm.Machine.Cycle_limit, _, _), Some _
         | Some _, Some (Svm.Machine.Cycle_limit, _, _) ->
           true (* a runaway loop hits the budget at different points *)
         | Some a, Some b ->
           if a = b then true
           else QCheck.Test.fail_reportf "mutation verdict diverged %s on/off" n
         | Some _, None | None, Some _ ->
           QCheck.Test.fail_reportf "image load diverged %s on/off" n))

let mutation_deny_parity config =
  let skipped = ref 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest (prop_mutation_deny_parity ~skipped config)
  in
  ( name,
    speed,
    fun () ->
      Alcotest.(check (list int)) "the victim has no rdcyc instruction" []
        (clock_reads (text_bytes (Lazy.force fixed_victim)));
      skipped := 0;
      run ();
      if !skipped > max_clock_skips then
        Alcotest.failf "%d of 200 mutants read the clock and were skipped (at most %d)"
          !skipped max_clock_skips )

(* The mutant that showed the clock leak is recognised as one. *)
let test_clock_mutant () =
  match mutate (2, 56) with
  | Error e -> Alcotest.failf "mutant (2, 56) no longer parses: %s" e
  | Ok img -> Alcotest.(check bool) "mutant (2, 56) reads the clock" true (mutation_reads_clock img)

let props config =
  [ QCheck_alcotest.to_alcotest (prop_differential config);
    mutation_deny_parity config;
    Alcotest.test_case "clock-reading mutant recognised" `Quick test_clock_mutant ]
