(* The call memo (Asc_core.Precomp).

   Like the vcache, the memo is a pure accelerator: its fast path may only
   prove a call that equals, with its tag, one the slow path verified at
   the same site — never change a verdict. The unit tests pin the verdict
   lattice (miss / memo hit / fallback) and that every dynamic field takes
   part in the memo comparison; the rows' lifecycle and bound are
   test_sitetab's, and the lifecycle and differential tests come from the
   shared {!Fastpath} harness. *)

module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Descriptor = Asc_core.Descriptor
module Precomp = Asc_core.Precomp
module T = Asc_obs.Telemetry

let key = Fastpath.key

(* ---- unit tests on the memo proper ---- *)

let counter (t : Fastpath.table) name = Fastpath.count t.registry ("precomp." ^ name)
let mk = Fastpath.const_call

(* a site exercising every dynamic-field kind: const, string, extension and
   control-flow reference *)
let rich ?(cval = 5) ?(s = ("/tmp/a", 0x900)) ?(ext_addr = 0xa00) ?(cf = (0xb00, 0xc00)) () =
  let d =
    Descriptor.(with_control_flow (with_ext (with_string_arg (with_const_arg empty 0) 2)))
  in
  let asref contents addr =
    { Encoded.as_addr = addr;
      as_len = String.length contents;
      as_mac = Cmac.mac key contents }
  in
  let contents, s_addr = s in
  let cf_addr, lbptr = cf in
  { Encoded.e_number = 11; e_site = 0x80; e_descriptor = d; e_block = 9;
    e_const_args = [ (0, cval) ];
    e_string_args = [ (2, asref contents s_addr) ];
    e_ext = Some (asref "extblock" ext_addr);
    e_control = Some (asref "preds" cf_addr, lbptr) }

let mac_of call = Cmac.mac key (Encoded.encode call)

let row (t : Fastpath.table) ~pid (call : Encoded.t) =
  Asc_core.Sitetab.find t.tab ~pid ~site:call.Encoded.e_site

let compile_call (t : Fastpath.table) ~pid call =
  Precomp.compile t.pc (row t ~pid call) ~call ~encoded:(Encoded.encode call) ~mac:(mac_of call)

(* the memo's verdict on [call] at its site, supplying [call]'s own tag
   unless told otherwise *)
let check (t : Fastpath.table) ~pid ?supplied call =
  let supplied = Option.value supplied ~default:(mac_of call) in
  Precomp.check t.pc (row t ~pid call) ~call ~supplied

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Precomp.Hit { suffix_len; encoded_len } ->
        Format.fprintf ppf "Hit(%d/%d)" suffix_len encoded_len
      | Precomp.Fallback f -> Format.fprintf ppf "%s" (T.reason_label (T.Precomp_fallback f)))
    ( = )

let test_compile_and_hit () =
  let t = Fastpath.table () in
  let call = mk () in
  let len = String.length (Encoded.encode call) in
  Alcotest.check verdict "cold row misses" (Precomp.Fallback T.F_no_entry) (check t ~pid:1 call);
  compile_call t ~pid:1 call;
  Alcotest.(check int) "one compile" 1 (counter t "compiles");
  Alcotest.check verdict "same call memo-hits"
    (Precomp.Hit { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
    (check t ~pid:1 call);
  Alcotest.(check int) "hit counted" 1 (counter t "hits");
  (* a forged tag on otherwise-identical bytes must not be proved *)
  Alcotest.check verdict "forged tag falls back" (Precomp.Fallback T.F_tag)
    (check t ~pid:1 ~supplied:(String.make 16 'f') call)

let test_statics_mismatch_falls_back () =
  let t = Fastpath.table () in
  let call = mk () in
  compile_call t ~pid:1 call;
  Alcotest.check verdict "different block id" (Precomp.Fallback T.F_statics)
    (check t ~pid:1 (mk ~block:8 ()));
  Alcotest.check verdict "different site misses" (Precomp.Fallback T.F_no_entry)
    (check t ~pid:1 (mk ~site:0x44 ()));
  Alcotest.check verdict "different pid misses" (Precomp.Fallback T.F_no_entry)
    (check t ~pid:2 call);
  Alcotest.(check int) "no false hits" 0 (counter t "hits")

let test_changed_call_falls_back () =
  (* A validly tagged call that differs from the memo in any one dynamic
     field is not the compiled verification: the table declines and the
     slow path decides. The first call compiled at a site stays its memo. *)
  let t = Fastpath.table () in
  compile_call t ~pid:1 (rich ());
  let declines what call =
    Alcotest.check verdict what (Precomp.Fallback T.F_tag) (check t ~pid:1 call)
  in
  declines "const value" (rich ~cval:6 ());
  declines "string contents + address" (rich ~s:("/tmp/bb", 0x910) ());
  declines "extension address" (rich ~ext_addr:0xa40 ());
  declines "control-flow ref + lbptr" (rich ~cf:(0xb40, 0xc40) ());
  compile_call t ~pid:1 (rich ~cval:6 ());
  Alcotest.(check int) "first writer wins" 1 (counter t "compiles");
  match check t ~pid:1 (rich ()) with
  | Precomp.Hit _ -> ()
  | v -> Alcotest.failf "the first call should still hit, got %a" (Alcotest.pp verdict) v

let () =
  Alcotest.run "precomp"
    [ ( "unit",
        [ Alcotest.test_case "compile then memo hit" `Quick test_compile_and_hit;
          Alcotest.test_case "statics mismatch falls back" `Quick
            test_statics_mismatch_falls_back;
          Alcotest.test_case "a changed call falls back" `Quick test_changed_call_falls_back ] );
      ("lifecycle", Fastpath.lifecycle_tests Fastpath.Precomp);
      ("differential", Fastpath.props (Fastpath.Only Fastpath.Precomp)) ]
