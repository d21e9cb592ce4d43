(* Known-answer tests for the crypto substrate: FIPS-197 AES vectors and
   RFC 4493 CMAC vectors, plus property tests on the MAC. *)

open Asc_crypto

let hex = Hex.decode

let check_hex msg expected actual = Alcotest.(check string) msg expected (Hex.encode actual)

(* --- AES-128 known answers --- *)

let test_aes_fips197 () =
  (* FIPS-197 Appendix B. *)
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_hex "FIPS-197 B"
    "3925841d02dc09fbdc118597196a0b32"
    (Aes.encrypt key (hex "3243f6a8885a308d313198a2e0370734"))

let test_aes_fips197_c1 () =
  (* FIPS-197 Appendix C.1. *)
  let key = Aes.expand (hex "000102030405060708090a0b0c0d0e0f") in
  check_hex "FIPS-197 C.1"
    "69c4e0d86a7b0430d8cdb78070b4c55a"
    (Aes.encrypt key (hex "00112233445566778899aabbccddeeff"))

let test_aes_nist_ecb () =
  (* NIST SP 800-38A F.1.1 ECB-AES128 encrypt, all four blocks. *)
  let key = Aes.expand (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [ ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4") ]
  in
  List.iter
    (fun (pt, ct) -> check_hex ("ECB " ^ pt) ct (Aes.encrypt key (hex pt)))
    cases

let test_aes_bad_key () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: key must be 16 bytes")
    (fun () -> ignore (Aes.expand "short"))

(* --- CMAC known answers (RFC 4493 section 4) --- *)

let cmac_key = Cmac.of_raw (hex "2b7e151628aed2a6abf7158809cf4f3c")

let test_cmac_empty () =
  check_hex "CMAC len 0" "bb1d6929e95937287fa37d129b756746" (Cmac.mac cmac_key "")

let test_cmac_16 () =
  check_hex "CMAC len 16" "070a16b46b4d4144f79bdd9dd04a287c"
    (Cmac.mac cmac_key (hex "6bc1bee22e409f96e93d7e117393172a"))

let test_cmac_40 () =
  check_hex "CMAC len 40" "dfa66747de9ae63030ca32611497c827"
    (Cmac.mac cmac_key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411"))

let test_cmac_64 () =
  check_hex "CMAC len 64" "51f0bebf7e3b9d92fc49741779363cfe"
    (Cmac.mac cmac_key
       (hex
          "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"))

let test_cmac_slice () =
  (* mac_bytes on an inner slice must equal mac on the substring. *)
  let msg = "prefix--the real message--suffix" in
  let inner = "the real message" in
  let whole = Cmac.mac cmac_key inner in
  let sliced =
    Cmac.mac_bytes cmac_key (Bytes.of_string msg) ~pos:8 ~len:(String.length inner)
  in
  Alcotest.(check string) "slice equals substring" (Hex.encode whole) (Hex.encode sliced)

let test_cmac_block_boundaries () =
  (* CMAC pads an incomplete final block (subkey k2) and xors a complete
     one (subkey k1). Around every block boundary, an unaligned slice must
     MAC as its substring does, and a single complete block takes the
     one-AES path with the same tag. *)
  let buf = Bytes.init 64 (fun i -> Char.chr (((i * 37) + 11) land 0xff)) in
  for len = 0 to 49 do
    let sub = Bytes.sub_string buf 3 len in
    Alcotest.(check string)
      (Printf.sprintf "slice of length %d" len)
      (Hex.encode (Cmac.mac cmac_key sub))
      (Hex.encode (Cmac.mac_bytes cmac_key buf ~pos:3 ~len))
  done;
  let block = Bytes.sub buf 5 16 in
  let dst = Bytes.create 16 in
  Cmac.mac_block_into cmac_key block ~dst;
  Alcotest.(check string) "one complete block" (Hex.encode (Cmac.mac cmac_key (Bytes.to_string block)))
    (Hex.encode (Bytes.to_string dst))

let test_equal_tags () =
  let t = Cmac.mac cmac_key "x" in
  Alcotest.(check bool) "tag equals itself" true (Cmac.equal_tags t t);
  Alcotest.(check bool) "different length" false (Cmac.equal_tags t "short");
  let t' = Bytes.of_string t in
  Bytes.set t' 15 (Char.chr (Char.code (Bytes.get t' 15) lxor 1));
  Alcotest.(check bool) "flipped bit" false (Cmac.equal_tags t (Bytes.to_string t'))

(* --- Hex --- *)

let test_hex_roundtrip () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "roundtrip" s (Hex.decode (Hex.encode s));
  Alcotest.(check string) "uppercase accepted" "\xab\xcd" (Hex.decode "ABCD")

let test_hex_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
      ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

(* --- Properties --- *)

let prop_mac_deterministic =
  QCheck.Test.make ~name:"cmac deterministic" ~count:200 QCheck.string (fun s ->
      Cmac.mac cmac_key s = Cmac.mac cmac_key s)

let prop_mac_distinguishes =
  (* Flipping any byte of a message changes the tag (overwhelming probability;
     a failure here would indicate a real implementation bug). *)
  QCheck.Test.make ~name:"cmac sensitive to message"
    ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) small_nat)
    (fun (s, i) ->
      let i = i mod String.length s in
      let s' = Bytes.of_string s in
      Bytes.set s' i (Char.chr (Char.code (Bytes.get s' i) lxor 0x5a));
      Cmac.mac cmac_key s <> Cmac.mac cmac_key (Bytes.to_string s'))

let prop_mac_key_separation =
  QCheck.Test.make ~name:"cmac distinct keys give distinct tags" ~count:100
    QCheck.(string_of_size (Gen.int_range 0 64))
    (fun s ->
      let k2 = Cmac.of_raw (Hex.decode "000102030405060708090a0b0c0d0e0f") in
      Cmac.mac cmac_key s <> Cmac.mac k2 s)

let prop_tag_len =
  QCheck.Test.make ~name:"tags are 16 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Cmac.mac cmac_key s) = Cmac.tag_len)

let suite =
  [ Alcotest.test_case "aes fips197 appendix B" `Quick test_aes_fips197;
    Alcotest.test_case "aes fips197 appendix C.1" `Quick test_aes_fips197_c1;
    Alcotest.test_case "aes nist ecb vectors" `Quick test_aes_nist_ecb;
    Alcotest.test_case "aes rejects bad key" `Quick test_aes_bad_key;
    Alcotest.test_case "cmac rfc4493 empty" `Quick test_cmac_empty;
    Alcotest.test_case "cmac rfc4493 16B" `Quick test_cmac_16;
    Alcotest.test_case "cmac rfc4493 40B" `Quick test_cmac_40;
    Alcotest.test_case "cmac rfc4493 64B" `Quick test_cmac_64;
    Alcotest.test_case "cmac slice" `Quick test_cmac_slice;
    Alcotest.test_case "cmac around block boundaries" `Quick test_cmac_block_boundaries;
    Alcotest.test_case "constant-time tag compare" `Quick test_equal_tags;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "hex errors" `Quick test_hex_errors ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_mac_deterministic; prop_mac_distinguishes; prop_mac_key_separation;
        prop_tag_len ]

let () = Alcotest.run "asc_crypto" [ ("crypto", suite) ]
