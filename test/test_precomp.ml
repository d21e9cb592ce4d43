(* The precompiled-site table (Asc_core.Precomp).

   Like the vcache, the table is a pure accelerator: its fast path may only
   prove a call that equals, with its tag, one the slow path verified at
   the same site — never change a verdict. The unit tests pin the verdict
   lattice (miss / memo hit / fallback), that every dynamic field takes
   part in the memo comparison, the per-pid lifecycle and the site bound;
   the lifecycle and differential tests come from the shared {!Fastpath}
   harness. *)

module Cmac = Asc_crypto.Cmac
module Encoded = Asc_core.Encoded
module Descriptor = Asc_core.Descriptor
module Precomp = Asc_core.Precomp

let key = Cmac.of_raw "precomp-test-key"

(* ---- unit tests on the table proper ---- *)

let create ?max_sites () =
  Precomp.create ?max_sites ~key ~registry:(Asc_obs.Metrics.create ()) ()

(* a site with one constrained numeric argument *)
let mk ?(site = 0x40) ?(block = 7) ?(cval = 42) () =
  let d = Descriptor.(with_const_arg empty 1) in
  { Encoded.e_number = 20; e_site = site; e_descriptor = d; e_block = block;
    e_const_args = [ (1, cval) ]; e_string_args = []; e_ext = None; e_control = None }

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

let compile_call t ~pid call =
  Precomp.compile t ~pid ~call ~encoded:(Encoded.encode call) ~mac:(mac_of call)

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Precomp.Miss -> Format.fprintf ppf "Miss"
      | Precomp.Hit { suffix_len; encoded_len } ->
        Format.fprintf ppf "Hit(%d/%d)" suffix_len encoded_len
      | Precomp.Fallback Precomp.Statics_mismatch -> Format.fprintf ppf "Fallback(statics)"
      | Precomp.Fallback Precomp.Tag_mismatch -> Format.fprintf ppf "Fallback(tag)")
    ( = )

let test_compile_and_hit () =
  let t = create () in
  let call = mk () in
  let len = String.length (Encoded.encode call) in
  Alcotest.check verdict "cold table misses" Precomp.Miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  compile_call t ~pid:1 call;
  Alcotest.(check int) "one entry" 1 (Precomp.size t);
  Alcotest.check verdict "same call memo-hits"
    (Precomp.Hit { suffix_len = len - Encoded.static_prefix_len; encoded_len = len })
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "hit counted" 1 (Precomp.hits t);
  (* a forged tag on otherwise-identical bytes must not be proved *)
  Alcotest.check verdict "forged tag falls back" (Precomp.Fallback Precomp.Tag_mismatch)
    (Precomp.check t ~pid:1 ~call ~supplied:(String.make 16 'f'))

let test_statics_mismatch_falls_back () =
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  Alcotest.check verdict "different block id" (Precomp.Fallback Precomp.Statics_mismatch)
    (Precomp.check t ~pid:1 ~call:(mk ~block:8 ()) ~supplied:(mac_of (mk ~block:8 ())));
  Alcotest.check verdict "different site misses" Precomp.Miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0x44 ()) ~supplied:(mac_of (mk ~site:0x44 ())));
  Alcotest.check verdict "different pid misses" Precomp.Miss
    (Precomp.check t ~pid:2 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "no false hits" 0 (Precomp.hits t)

let test_changed_call_falls_back () =
  (* A validly tagged call that differs from the memo in any one dynamic
     field is not the compiled verification: the table declines and the
     slow path decides. The first call compiled at a site stays its memo. *)
  let t = create () in
  compile_call t ~pid:1 (rich ());
  let declines what call =
    Alcotest.check verdict what (Precomp.Fallback Precomp.Tag_mismatch)
      (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call))
  in
  declines "const value" (rich ~cval:6 ());
  declines "string contents + address" (rich ~s:("/tmp/bb", 0x910) ());
  declines "extension address" (rich ~ext_addr:0xa40 ());
  declines "control-flow ref + lbptr" (rich ~cf:(0xb40, 0xc40) ());
  compile_call t ~pid:1 (rich ~cval:6 ());
  Alcotest.(check int) "first writer wins" 1 (Precomp.compiles t);
  match Precomp.check t ~pid:1 ~call:(rich ()) ~supplied:(mac_of (rich ())) with
  | Precomp.Hit _ -> ()
  | v -> Alcotest.failf "the first call should still hit, got %a" (Alcotest.pp verdict) v

let test_pid_lifecycle () =
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  compile_call t ~pid:2 call;
  Alcotest.(check int) "two entries" 2 (Precomp.size t);
  Precomp.prepare_pid t 1;
  Alcotest.check verdict "exec emptied pid 1" Precomp.Miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  (match Precomp.check t ~pid:2 ~call ~supplied:(mac_of call) with
   | Precomp.Hit _ -> ()
   | v -> Alcotest.failf "pid 2 should stay warm, got %a" (Alcotest.pp verdict) v);
  Precomp.invalidate_pid t 2;
  Alcotest.(check int) "both invalidations counted" 2 (Precomp.invalidations t);
  Alcotest.(check int) "table empty" 0 (Precomp.size t)

let test_clear_drops_every_pid () =
  (* clearing the table forgets every pid's memo, counted as
     invalidations, so no later check can hit an entry compiled before *)
  let t = create () in
  let call = mk () in
  compile_call t ~pid:1 call;
  compile_call t ~pid:2 call;
  compile_call t ~pid:2 (mk ~site:0x44 ());
  Precomp.clear t;
  Alcotest.(check int) "table empty" 0 (Precomp.size t);
  Alcotest.(check int) "every entry counted" 3 (Precomp.invalidations t);
  Alcotest.check verdict "pid 1 misses" Precomp.Miss
    (Precomp.check t ~pid:1 ~call ~supplied:(mac_of call));
  Alcotest.check verdict "pid 2 misses" Precomp.Miss
    (Precomp.check t ~pid:2 ~call ~supplied:(mac_of call));
  Alcotest.(check int) "no hits after clear" 0 (Precomp.hits t)

let test_max_sites_bound () =
  let t = create ~max_sites:1 () in
  compile_call t ~pid:1 (mk ~site:0x40 ());
  compile_call t ~pid:1 (mk ~site:0x44 ());
  Alcotest.(check int) "bound holds" 1 (Precomp.size t);
  Alcotest.(check int) "one compile" 1 (Precomp.compiles t);
  Alcotest.check verdict "beyond-bound site keeps missing" Precomp.Miss
    (Precomp.check t ~pid:1 ~call:(mk ~site:0x44 ()) ~supplied:(mac_of (mk ~site:0x44 ())));
  Alcotest.check_raises "max_sites 0 refused"
    (Invalid_argument "Precomp.create: max_sites must be >= 1") (fun () ->
      ignore (create ~max_sites:0 ()))

let () =
  Alcotest.run "precomp"
    [ ( "unit",
        [ Alcotest.test_case "compile then memo hit" `Quick test_compile_and_hit;
          Alcotest.test_case "statics mismatch falls back" `Quick
            test_statics_mismatch_falls_back;
          Alcotest.test_case "a changed call falls back" `Quick test_changed_call_falls_back;
          Alcotest.test_case "pid lifecycle" `Quick test_pid_lifecycle;
          Alcotest.test_case "clear drops every pid" `Quick test_clear_drops_every_pid;
          Alcotest.test_case "max_sites bound" `Quick test_max_sites_bound ] );
      ("lifecycle", Fastpath.lifecycle_tests Fastpath.Precomp);
      ("differential", Fastpath.props (Fastpath.Only Fastpath.Precomp)) ]
