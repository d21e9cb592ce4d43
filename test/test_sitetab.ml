(* The fast paths' one per-(pid, site) table (Asc_core.Sitetab).

   A row holds both the call memo (Precomp) and the predecessor bitset
   (Cfpre) of a site, so the table's lifecycle and bounds are checked once,
   here, for both halves: the monitor's lifecycle hook drops both halves of
   a pid's rows on execve and on exit and leaves other pids warm, drop_pid
   does the same on the table directly, a warm lookup allocates nothing,
   rows stop at Sitetab.max_sites, and a predecessor set spanning more
   than Cfpre.block_limit ids is never compiled. *)

open Oskernel
module Precomp = Asc_core.Precomp
module Cfpre = Asc_core.Cfpre
module Sitetab = Asc_core.Sitetab

(* ---- lifecycle, through the deployment checker's hook ---- *)

(* Run [p] on until its machine has retired [until] cycles. A cycle-limit
   stop is not a teardown: clearing it resumes the same process. *)
let run_to kernel (p : Process.t) until =
  p.Process.machine.Svm.Machine.stopped <- None;
  Kernel.run kernel p ~max_cycles:until

(* Two copies of a getpid loop on one deployment kernel, each paused with
   its rows warm. The loop body traps at one site, so resuming a warm pid
   takes no memo or bitset misses, and a pid whose rows were dropped
   exactly one of each. *)
let test_lifecycle () =
  let img =
    Fastpath.install ~program:"loop"
      "int main() { int k; for (k = 0; k < 400; k = k + 1) { getpid(); } return 0; }"
  in
  let kernel = Kernel.create ~personality:Fastpath.personality () in
  Kernel.set_monitor kernel (Some (Fastpath.monitor ~config:Fastpath.Deployment kernel));
  let count = Fastpath.count (Kernel.metrics kernel) in
  (* run [p] on to [until] cycles; check it hit both halves, and return
     its memo and bitset misses *)
  let resume p until =
    let counts () =
      List.map count [ "precomp.misses"; "cfpre.misses"; "precomp.hits"; "cfpre.hits" ]
    in
    let before = counts () in
    if run_to kernel p until <> Svm.Machine.Cycle_limit then Alcotest.fail "a loop ended early";
    match List.map2 ( - ) (counts ()) before with
    | [ pm; cm; ph; ch ] when ph > 0 && ch > 0 -> (pm, cm)
    | _ -> Alcotest.fail "the run took no fast-path hits"
  in
  let halt p = if run_to kernel p max_int <> Svm.Machine.Halted 0 then Alcotest.fail "no exit" in
  let p1 = Kernel.spawn kernel ~program:"loop" img in
  let p2 = Kernel.spawn kernel ~program:"loop" img in
  ignore (resume p1 100_000, resume p2 100_000);
  let rows = count "sitetab.size" in
  List.iter (fun hook -> hook (Kernel.Proc_exec { pid = p1.Process.pid })) kernel.lifecycle_hooks;
  Alcotest.(check int) "exec dropped pid 1's rows" (rows - count "sitetab.size")
    (count "sitetab.invalidations");
  Alcotest.(check bool) "some" true (count "sitetab.invalidations" > 0);
  Alcotest.(check (pair int int)) "pid 2 stays warm" (0, 0) (resume p2 200_000);
  Alcotest.(check (pair int int)) "pid 1 misses once per half" (1, 1) (resume p1 200_000);
  let dropped = count "sitetab.invalidations" in
  halt p2;
  Alcotest.(check bool) "exit dropped pid 2's rows" true (count "sitetab.invalidations" > dropped);
  Alcotest.(check (pair int int)) "pid 1 stays warm" (0, 0) (resume p1 300_000);
  halt p1;
  Alcotest.(check int) "no rows left" 0 (count "sitetab.size")

(* ---- lifecycle and lookup, on the table directly ---- *)

let memo_hits (t : Fastpath.table) row call =
  let mac = Asc_crypto.Cmac.mac Fastpath.key (Asc_core.Encoded.encode call) in
  match Precomp.check t.pc row ~call ~supplied:mac with Precomp.Hit _ -> true | _ -> false

let compile_memo (t : Fastpath.table) ~pid ~site =
  let call = Fastpath.const_call ~site () in
  let encoded = Asc_core.Encoded.encode call in
  Precomp.compile t.pc (Sitetab.find t.tab ~pid ~site) ~call ~encoded
    ~mac:(Asc_crypto.Cmac.mac Fastpath.key encoded)

(* drop_pid forgets every row of one pid, both halves and its scratch,
   counted as invalidations, and leaves other pids' rows as they were *)
let test_drop_pid () =
  let t = Fastpath.table () in
  let m, pred_ref, contents = Fastpath.predset [ 3; 7 ] in
  List.iter
    (fun (pid, site) ->
      compile_memo t ~pid ~site;
      Cfpre.compile t.cf (Sitetab.find t.tab ~pid ~site) ~pred_ref ~contents)
    [ (1, 0x40); (1, 0x44); (2, 0x40) ];
  let count = Fastpath.count t.registry in
  let r1 = Sitetab.find t.tab ~pid:1 ~site:0x40 in
  Alcotest.(check bool) "a pid's rows share its scratch" true
    (r1.scratch == (Sitetab.find t.tab ~pid:1 ~site:0x44).scratch);
  Alcotest.(check bool) "pids do not" false
    (r1.scratch == (Sitetab.find t.tab ~pid:2 ~site:0x40).scratch);
  Sitetab.drop_pid t.tab 1;
  Alcotest.(check (pair int int)) "pid 1's two rows dropped" (2, 1)
    (count "sitetab.invalidations", count "sitetab.size");
  let fresh = Sitetab.find t.tab ~pid:1 ~site:0x40 in
  Alcotest.(check (pair bool bool)) "pid 1 comes back with empty halves" (true, true)
    (fresh.memo = None, fresh.preds = None);
  Alcotest.(check bool) "and a fresh scratch" false (fresh.scratch == r1.scratch);
  Alcotest.(check bool) "pid 1 misses" false (memo_hits t fresh (Fastpath.const_call ~site:0x40 ()));
  let r2 = Sitetab.find t.tab ~pid:2 ~site:0x40 in
  Alcotest.(check bool) "pid 2's memo stays warm" true
    (memo_hits t r2 (Fastpath.const_call ~site:0x40 ()));
  (match Cfpre.check t.cf ~m r2 ~pred_ref with
   | Cfpre.Hit _ -> ()
   | Cfpre.Fallback _ -> Alcotest.fail "pid 2's bitset should stay warm");
  Sitetab.drop_pid t.tab 3;
  Alcotest.(check int) "an unknown pid drops nothing" 2 (count "sitetab.invalidations");
  Sitetab.drop_pid t.tab 1;
  Sitetab.drop_pid t.tab 2;
  Alcotest.(check (pair int int)) "every row dropped and counted" (4, 0)
    (count "sitetab.invalidations", count "sitetab.size")

(* the steady-state trap looks its row up once; once the row exists the
   lookup allocates nothing *)
let test_warm_find_allocates_nothing () =
  let t = Fastpath.table () in
  let sites = [| 0x40; 0x44; 0x48 |] in
  Array.iter (fun site -> ignore (Sitetab.find t.tab ~pid:1 ~site)) sites;
  let before = Gc.minor_words () in
  for i = 1 to 3000 do
    ignore (Sitetab.find t.tab ~pid:1 ~site:sites.(i mod 3))
  done;
  Alcotest.(check int) "minor words over 3000 warm finds" 0
    (int_of_float (Gc.minor_words () -. before))

(* ---- bounds, on the table directly ---- *)

let test_row_bound () =
  let t = Fastpath.table () in
  let m, pred_ref, contents = Fastpath.predset [ 3; 7 ] in
  (* compile both halves at [site]; report whether each then hits *)
  let compile site =
    let row = Sitetab.find t.tab ~pid:1 ~site and call = Fastpath.const_call ~site () in
    let encoded = Asc_core.Encoded.encode call in
    let mac = Asc_crypto.Cmac.mac Fastpath.key encoded in
    Precomp.compile t.pc row ~call ~encoded ~mac;
    Cfpre.compile t.cf row ~pred_ref ~contents;
    ( (match Precomp.check t.pc row ~call ~supplied:mac with Precomp.Hit _ -> true | _ -> false),
      match Cfpre.check t.cf ~m row ~pred_ref with Cfpre.Hit _ -> true | _ -> false )
  in
  for site = 1 to Sitetab.max_sites do
    if compile site <> (true, true) then Alcotest.failf "site %d did not compile" site
  done;
  Alcotest.(check (pair bool bool)) "the site past the bound is not compiled" (false, false)
    (compile (Sitetab.max_sites + 1));
  Alcotest.(check bool) "its row is not kept" false
    (Sitetab.find t.tab ~pid:1 ~site:(Sitetab.max_sites + 1)).kept;
  let count = Fastpath.count t.registry in
  Alcotest.(check (list int)) "rows and compiles stop at the bound"
    [ Sitetab.max_sites; Sitetab.max_sites; Sitetab.max_sites ]
    [ count "sitetab.size"; count "precomp.compiles"; count "cfpre.compiles" ]

let test_span_bound () =
  let t = Fastpath.table () in
  let compiles () = Fastpath.count t.registry "cfpre.compiles" in
  let compile ~site ids =
    let _, pred_ref, contents = Fastpath.predset ids in
    Cfpre.compile t.cf (Sitetab.find t.tab ~pid:1 ~site) ~pred_ref ~contents
  in
  compile ~site:1 [ 100; 100 + Cfpre.block_limit ];
  Alcotest.(check int) "a set spanning block_limit + 1 ids is not compiled" 0 (compiles ());
  compile ~site:2 [ 100; 100 + Cfpre.block_limit - 1 ];
  Alcotest.(check int) "a set spanning block_limit ids is" 1 (compiles ());
  (* malformed contents (not a multiple of 8, or empty) decline too *)
  let _, pred_ref, _ = Fastpath.predset [ 3 ] in
  Cfpre.compile t.cf (Sitetab.find t.tab ~pid:1 ~site:3) ~pred_ref ~contents:"short";
  Cfpre.compile t.cf (Sitetab.find t.tab ~pid:1 ~site:4) ~pred_ref ~contents:"";
  Alcotest.(check int) "malformed sets are not" 1 (compiles ())

let () =
  Alcotest.run "sitetab"
    [ ( "lifecycle",
        [ Alcotest.test_case "exec and exit drop both halves, other pids stay warm" `Quick
            test_lifecycle;
          Alcotest.test_case "drop_pid forgets one pid's rows, both halves" `Quick test_drop_pid ] );
      ( "lookup",
        [ Alcotest.test_case "a warm find allocates nothing" `Quick
            test_warm_find_allocates_nothing ] );
      ( "bounds",
        [ Alcotest.test_case "rows stop at max_sites" `Quick test_row_bound;
          Alcotest.test_case "over-span sets are not compiled" `Quick test_span_bound ] ) ]
