(* The precompiled control-flow bitsets (Asc_core.Cfpre).

   Like the vcache and the call memo, the bitsets are a pure accelerator:
   their fast path may only decide a predecessor check whose live
   reference AND live guest bytes equal the slow-path-verified ones, never
   change a verdict. The unit tests pin the verdict lattice (miss / hit /
   ref fallback / contents fallback), the base-offset bitset against
   globally-unique block ids (program id in the high bits) and the
   single-block CMAC chain step against the one-shot MAC; the rows'
   lifecycle and bounds are test_sitetab's, and the lifecycle and
   differential tests come from the shared {!Fastpath} harness. *)

module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Cfpre = Asc_core.Cfpre
module Sitetab = Asc_core.Sitetab
module Machine = Svm.Machine

let key = Fastpath.key

(* ---- unit tests on the bitsets proper ---- *)

let counter (t : Fastpath.table) name = Fastpath.count t.registry ("cfpre." ^ name)

let compile (t : Fastpath.table) ~pid ~site ~pred_ref ~contents =
  Cfpre.compile t.cf (Sitetab.find t.tab ~pid ~site) ~pred_ref ~contents

let check (t : Fastpath.table) ~m ~pid ~site ~pred_ref =
  Cfpre.check t.cf ~m (Sitetab.find t.tab ~pid ~site) ~pred_ref

let verdict_name = function
  | Cfpre.Hit _ -> "Hit"
  | Cfpre.Fallback r -> Asc_obs.Telemetry.cf_label r

let check_is what expected t ~m ~pid ~site ~pred_ref =
  let got = verdict_name (check t ~m ~pid ~site ~pred_ref) in
  Alcotest.(check string) what expected got

let test_compile_and_hit () =
  let t = Fastpath.table () in
  let m, r, contents = Fastpath.predset ~addr:0x100 [ 3; 7; 9 ] in
  check_is "cold row misses" "cf_slow" t ~m ~pid:1 ~site:0x40 ~pred_ref:r;
  compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "one compile" 1 (counter t "compiles");
  let _, r2, contents2 = Fastpath.predset ~addr:0x100 [ 4 ] in
  compile t ~pid:1 ~site:0x40 ~pred_ref:r2 ~contents:contents2;
  Alcotest.(check int) "first writer wins" 1 (counter t "compiles");
  (match check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit entry ->
     (* the bitset decides exactly what predset_mem decides *)
     for b = 0 to 16 do
       Alcotest.(check bool)
         (Printf.sprintf "member %d" b)
         (Encoded.predset_mem contents b) (Cfpre.member entry b)
     done
   | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v));
  Alcotest.(check int) "hit counted" 1 (counter t "hits");
  check_is "other site misses" "cf_slow" t ~m ~pid:1 ~site:0x44 ~pred_ref:r;
  check_is "other pid misses" "cf_slow" t ~m ~pid:2 ~site:0x40 ~pred_ref:r

let test_globally_unique_ids () =
  (* block ids carry the program id in the high bits (program_id lsl 20 lor
     local), so the absolute values dwarf any sane dense bound; the bitset
     is offset from the set's smallest id and only the span matters *)
  let pid_bits = 7 lsl 20 in
  let ids = [ pid_bits lor 2; pid_bits lor 5; pid_bits lor 40 ] in
  let t = Fastpath.table () in
  let m, r, contents = Fastpath.predset ~addr:0x100 ids in
  compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  Alcotest.(check int) "wide ids still compile" 1 (counter t "compiles");
  (match check t ~m ~pid:1 ~site:0x40 ~pred_ref:r with
   | Cfpre.Hit entry ->
     List.iter
       (fun b -> Alcotest.(check bool) "compiled id is a member" true (Cfpre.member entry b))
       ids;
     Alcotest.(check bool) "below base is not" false (Cfpre.member entry (pid_bits lor 1));
     Alcotest.(check bool) "gap id is not" false (Cfpre.member entry (pid_bits lor 3));
     Alcotest.(check bool) "other program's block is not" false
       (Cfpre.member entry ((8 lsl 20) lor 2));
     Alcotest.(check bool) "negative id is not" false (Cfpre.member entry (-1))
   | v -> Alcotest.failf "expected Hit, got %s" (verdict_name v))

let test_fallbacks () =
  let t = Fastpath.table () in
  let m, r, contents = Fastpath.predset ~addr:0x100 [ 3; 7 ] in
  compile t ~pid:1 ~site:0x40 ~pred_ref:r ~contents;
  (* a moved/forged reference: same site, different (addr, len, mac) *)
  check_is "forged mac falls back" "cf_fallback_ref" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_mac = String.make 16 'f' };
  check_is "moved addr falls back" "cf_fallback_ref" t ~m ~pid:1 ~site:0x40
    ~pred_ref:{ r with Encoded.as_addr = 0x104 };
  (* the reference matches but the guest bytes moved out from under it *)
  assert (Machine.write_byte m (0x100 + 3) 0xff);
  check_is "mutated guest bytes fall back" "cf_fallback_contents" t ~m ~pid:1 ~site:0x40
    ~pred_ref:r;
  Alcotest.(check int) "fallbacks counted" 3 (counter t "fallbacks");
  Alcotest.(check int) "no false hits" 0 (counter t "hits")

(* ---- the amortized chain step vs the one-shot MAC ---- *)

let test_chain_step_equals_one_shot () =
  (* the fast path's single-block CMAC over the serialized policy state
     must equal the slow path's Cmac.mac of Encoded.state_bytes — the tag
     written back to guest memory is bit-identical on both paths *)
  let sc = (Sitetab.find (Fastpath.table ()).tab ~pid:1 ~site:0x40).Sitetab.scratch in
  List.iter
    (fun (counter, last_block) ->
      Cfpre.state_into sc ~counter ~last_block;
      Alcotest.(check string)
        (Printf.sprintf "state (%d, %d)" counter last_block)
        (Encoded.state_bytes ~counter ~last_block)
        (Bytes.to_string sc.Sitetab.ps_state);
      Cmac.mac_block_into key sc.Sitetab.ps_state ~dst:sc.Sitetab.ps_tag;
      Alcotest.(check string)
        (Printf.sprintf "tag (%d, %d)" counter last_block)
        (Cmac.mac key (Encoded.state_bytes ~counter ~last_block))
        (Bytes.to_string sc.Sitetab.ps_tag))
    [ (0, 0); (1, 7); (12345, (9 lsl 20) lor 3); (max_int, max_int) ]

let test_word_accessors_round_trip () =
  (* the allocation-free word accessors must agree with the boxed pair for
     every byte pattern, including the sign bit *)
  let m = Machine.create ~mem_size:64 in
  List.iter
    (fun v ->
      Machine.set_word m 8 v;
      Alcotest.(check int) (Printf.sprintf "word_at %d" v) v (Machine.word_at m 8);
      Alcotest.(check (option int))
        (Printf.sprintf "read_word %d" v)
        (Some v) (Machine.read_word m 8);
      assert (Machine.write_word m 16 v);
      Alcotest.(check int) (Printf.sprintf "write_word/word_at %d" v) v (Machine.word_at m 16))
    [ 0; 1; 255; 0x0123_4567_89ab; max_int; -1; min_int; (1 lsl 20) lor 3 ];
  Alcotest.(check bool) "word_ok in range" true (Machine.word_ok m 56);
  Alcotest.(check bool) "word_ok out of range" false (Machine.word_ok m 57);
  Alcotest.check_raises "word_at out of range"
    (Invalid_argument "Machine.word_at: out of range") (fun () ->
      ignore (Machine.word_at m 57))

let () =
  Alcotest.run "cfpre"
    [ ( "unit",
        [ Alcotest.test_case "compile then hit" `Quick test_compile_and_hit;
          Alcotest.test_case "globally-unique ids use the base offset" `Quick
            test_globally_unique_ids;
          Alcotest.test_case "forged ref / mutated bytes fall back" `Quick test_fallbacks ] );
      ( "chain",
        [ Alcotest.test_case "chain step equals one-shot MAC" `Quick
            test_chain_step_equals_one_shot;
          Alcotest.test_case "word accessors round-trip" `Quick
            test_word_accessors_round_trip ] );
      ("lifecycle", Fastpath.lifecycle_tests Fastpath.Cfpre);
      ("differential", Fastpath.props (Fastpath.Only Fastpath.Cfpre)) ]
