(* The verified-MAC cache (Asc_core.Vcache).

   The cache is a pure accelerator: it may only skip CMAC recomputation for
   byte-identical successful verifications, never change a verdict. The
   unit tests pin LRU eviction at capacity, that the key covers bytes and
   tag, and pid isolation; the lifecycle and differential tests come from
   the shared {!Fastpath} harness, plus a thrashing 1-entry cache. *)

open Oskernel
module Vcache = Asc_core.Vcache

(* ---- unit tests on the cache proper ---- *)

let mac_a = String.make 16 'a'
let mac_b = String.make 16 'b'
let ckey ?(pid = 1) site = Vcache.Call { pid; site; encoded = Printf.sprintf "enc%d" site }

(* a cache with its own registry, and a reader for what it publishes there *)
let create ~capacity =
  let registry = Asc_obs.Metrics.create () in
  (Vcache.create ~capacity ~registry (), fun name -> Fastpath.count registry ("vcache." ^ name))

let test_lru_eviction () =
  let vc, metric = create ~capacity:2 in
  Vcache.remember vc (ckey 1) ~mac:mac_a;
  Vcache.remember vc (ckey 2) ~mac:mac_a;
  Alcotest.(check int) "full" 2 (metric "size");
  (* touch entry 1 so entry 2 becomes least-recently-used *)
  Alcotest.(check bool) "entry 1 hits" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Vcache.remember vc (ckey 3) ~mac:mac_a;
  Alcotest.(check int) "still bounded" 2 (metric "size");
  Alcotest.(check int) "one eviction" 1 (metric "evictions");
  Alcotest.(check bool) "LRU entry 2 evicted" false (Vcache.check vc (ckey 2) ~mac:mac_a);
  Alcotest.(check bool) "entry 1 survives" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Alcotest.(check bool) "entry 3 present" true (Vcache.check vc (ckey 3) ~mac:mac_a)

let test_key_covers_tag () =
  (* the supplied tag is part of the entry: a tampered MAC misses even when
     the covered bytes match, and tampered bytes miss under the right MAC *)
  let vc, _ = create ~capacity:8 in
  Vcache.remember vc (ckey 1) ~mac:mac_a;
  Alcotest.(check bool) "same bytes, same tag" true (Vcache.check vc (ckey 1) ~mac:mac_a);
  Alcotest.(check bool) "same bytes, forged tag" false (Vcache.check vc (ckey 1) ~mac:mac_b);
  Alcotest.(check bool) "tampered bytes" false
    (Vcache.check vc (Vcache.Call { pid = 1; site = 1; encoded = "ENC1" }) ~mac:mac_a);
  let s = Vcache.Str { pid = 1; bytes = "/bin/ls" } in
  Vcache.remember vc s ~mac:mac_a;
  Alcotest.(check bool) "string hit" true (Vcache.check vc s ~mac:mac_a);
  Alcotest.(check bool) "tampered string" false
    (Vcache.check vc (Vcache.Str { pid = 1; bytes = "/bin/sh" }) ~mac:mac_a)

let test_pid_isolation () =
  (* invalidating pid 1 must drop exactly its entries: pid 1 starts cold
     while pid 2's warm entries are untouched *)
  let vc, metric = create ~capacity:8 in
  Vcache.remember vc (ckey ~pid:1 1) ~mac:mac_a;
  Vcache.remember vc (ckey ~pid:1 2) ~mac:mac_a;
  Vcache.remember vc (ckey ~pid:2 1) ~mac:mac_a;
  Vcache.remember vc (Vcache.Str { pid = 1; bytes = "s" }) ~mac:mac_a;
  Vcache.invalidate_pid vc 1;
  Alcotest.(check int) "three entries dropped" 3 (metric "invalidations");
  Alcotest.(check int) "pid 2's entry remains" 1 (metric "size");
  Alcotest.(check bool) "pid 1 call cold" false (Vcache.check vc (ckey ~pid:1 1) ~mac:mac_a);
  Alcotest.(check bool) "pid 1 string cold" false
    (Vcache.check vc (Vcache.Str { pid = 1; bytes = "s" }) ~mac:mac_a);
  Alcotest.(check bool) "pid 2 still warm" true (Vcache.check vc (ckey ~pid:2 1) ~mac:mac_a)

let test_capacity_validated () =
  Alcotest.check_raises "capacity 0 refused"
    (Invalid_argument "Vcache.create: capacity must be >= 1") (fun () ->
      ignore (Vcache.create ~capacity:0 ~registry:(Asc_obs.Metrics.create ()) ()))

let test_tiny_capacity_still_sound () =
  (* a 1-entry cache thrashes (every distinct site evicts the previous one)
     but must stay sound and cheap: same behavior, no extra cycles *)
  let src =
    {|
int main() {
  int k;
  for (k = 0; k < 6; k = k + 1) { getpid(); write(1, "x", 1); }
  return 0;
}
|}
  in
  let img = Fastpath.install ~program:"thrash" src in
  let _, p_off, stop_off = Fastpath.run_image img in
  let k_on, p_on, stop_on = Fastpath.run_image ~config:(Fastpath.Only Fastpath.Vcache) ~capacity:1 img in
  (match (stop_off, stop_on) with
   | Svm.Machine.Halted a, Svm.Machine.Halted b -> Alcotest.(check int) "same exit" a b
   | _ -> Alcotest.fail "runs did not halt");
  Alcotest.(check string) "same stdout" (Kernel.stdout_of p_off) (Kernel.stdout_of p_on);
  Alcotest.(check bool) "thrashing evicts" true
    (Fastpath.metric k_on Fastpath.Vcache "evictions" > 0);
  Alcotest.(check bool) "never more cycles than cache-off" true
    (Fastpath.cycles p_on <= Fastpath.cycles p_off)

let () =
  Alcotest.run "vcache"
    [ ( "unit",
        [ Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "key covers bytes and tag" `Quick test_key_covers_tag;
          Alcotest.test_case "pid isolation on invalidate" `Quick test_pid_isolation;
          Alcotest.test_case "capacity validated" `Quick test_capacity_validated ] );
      ( "lifecycle",
        Fastpath.lifecycle_tests Fastpath.Vcache
        @ [ Alcotest.test_case "tiny capacity thrashes soundly" `Quick
              test_tiny_capacity_still_sound ] );
      ("differential", Fastpath.props (Fastpath.Only Fastpath.Vcache)) ]
