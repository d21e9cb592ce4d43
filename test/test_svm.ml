(* Tests for the SVM substrate: ISA encode/decode, SEF serialize/parse,
   assembler, loader and interpreter semantics. *)

open Svm

(* --- ISA --- *)

let arbitrary_instr =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let imm = int_range (-1000000) 1000000 in
  let addr = int_range 0 0xfffff in
  let binop =
    oneofl
      [ Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Mod; Isa.And; Isa.Or; Isa.Xor;
        Isa.Shl; Isa.Shr; Isa.Slt; Isa.Sle; Isa.Seq; Isa.Sne ]
  in
  let cond = oneofl [ Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Le; Isa.Gt ] in
  let gen =
    oneof
      [ return Isa.Halt; return Isa.Nop; return Isa.Ret; return Isa.Sys;
        map2 (fun r v -> Isa.Movi (r, v)) reg imm;
        map2 (fun a b -> Isa.Mov (a, b)) reg reg;
        map3 (fun a b o -> Isa.Ld (a, b, o)) reg reg imm;
        map3 (fun a o b -> Isa.St (a, o, b)) reg imm reg;
        map3 (fun a b o -> Isa.Ldb (a, b, o)) reg reg imm;
        map3 (fun a o b -> Isa.Stb (a, o, b)) reg imm reg;
        (binop >>= fun op -> map3 (fun a b c -> Isa.Binop (op, a, b, c)) reg reg reg);
        map3 (fun a b v -> Isa.Addi (a, b, v)) reg reg imm;
        (cond >>= fun c ->
         map3 (fun a b t -> Isa.Br (c, a, b, t)) reg reg addr);
        map (fun t -> Isa.Jmp t) addr;
        map (fun r -> Isa.Jr r) reg;
        map (fun t -> Isa.Call t) addr;
        map (fun r -> Isa.Callr r) reg;
        map (fun r -> Isa.Push r) reg;
        map (fun r -> Isa.Pop r) reg;
        map (fun r -> Isa.Rdcyc r) reg ]
  in
  QCheck.make ~print:(Format.asprintf "%a" Isa.pp) gen

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"isa encode/decode roundtrip" ~count:1000 arbitrary_instr
    (fun i ->
      let b = Bytes.create Isa.instr_size in
      Isa.encode i b ~pos:0;
      Isa.decode b ~pos:0 = Some i)

let test_decode_garbage () =
  let b = Bytes.make 8 '\xff' in
  Alcotest.(check bool) "0xff opcode invalid" true (Isa.decode b ~pos:0 = None);
  let b2 = Bytes.create 8 in
  Isa.encode (Isa.Binop (Isa.Add, 1, 2, 3)) b2 ~pos:0;
  Bytes.set b2 2 '\xee' (* corrupt rt byte *);
  Alcotest.(check bool) "binop with bad rt invalid" true (Isa.decode b2 ~pos:0 = None)

let test_encode_bounds () =
  let b = Bytes.create 8 in
  Alcotest.check_raises "bad reg" (Invalid_argument "Isa.encode: bad register") (fun () ->
      Isa.encode (Isa.Mov (16, 0)) b ~pos:0);
  Alcotest.check_raises "imm too big" (Invalid_argument "Isa.encode: immediate out of range")
    (fun () -> Isa.encode (Isa.Movi (0, 1 lsl 40)) b ~pos:0)

(* --- SEF --- *)

let sample_image () =
  Asm.assemble_exn
    {|
_start: movi r1, 5
        movi r2, msg      ; address -> reloc
        call double
        halt
double: add r0, r1, r1
        ret
        .rodata
msg:    .asciz "hello"
        .data
ptr:    .addr msg
val:    .word 42
|}

let test_sef_roundtrip () =
  let img = sample_image () in
  let s = Obj_file.serialize img in
  match Obj_file.parse s with
  | Error e -> Alcotest.fail e
  | Ok img' ->
    Alcotest.(check int) "entry" img.Obj_file.entry img'.Obj_file.entry;
    Alcotest.(check int) "sections" (List.length img.sections) (List.length img'.sections);
    Alcotest.(check int) "symbols" (List.length img.symbols) (List.length img'.symbols);
    Alcotest.(check int) "relocs" (List.length img.relocs) (List.length img'.relocs);
    Alcotest.(check string) "text payload" (Obj_file.text_section img).sec_payload
      (Obj_file.text_section img').sec_payload

let test_sef_bad_magic () =
  match Obj_file.parse "NOPE rest" with
  | Error e -> Alcotest.(check string) "magic error" "bad magic" e
  | Ok _ -> Alcotest.fail "parsed garbage"

let test_sef_truncated () =
  let img = sample_image () in
  let s = Obj_file.serialize img in
  match Obj_file.parse (String.sub s 0 (String.length s / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed truncated image"

let test_symbols_and_sections () =
  let img = sample_image () in
  Alcotest.(check bool) "has _start" true (Obj_file.find_symbol img "_start" <> None);
  Alcotest.(check bool) "has double" true (Obj_file.find_symbol img "double" <> None);
  let msg_addr = Option.get (Obj_file.find_symbol img "msg") in
  (match Obj_file.section_containing img msg_addr with
   | Some s -> Alcotest.(check string) "msg in rodata" ".rodata" s.sec_name
   | None -> Alcotest.fail "msg not in any section");
  (* the reloc for `movi r2, msg` is in text at instruction 1's imm field *)
  let text = Obj_file.text_section img in
  let expected_rel = text.sec_addr + Isa.instr_size + 4 in
  Alcotest.(check bool) "movi reloc present" true
    (List.exists (fun r -> r.Obj_file.rel_at = expected_rel) img.relocs);
  (* the .addr directive produced a data reloc *)
  let ptr_addr = Option.get (Obj_file.find_symbol img "ptr") in
  Alcotest.(check bool) "data reloc present" true
    (List.exists (fun r -> r.Obj_file.rel_at = ptr_addr) img.relocs)

let test_asm_errors () =
  let expect_err src frag =
    match Asm.assemble src with
    | Ok _ -> Alcotest.failf "expected error mentioning %S" frag
    | Error e ->
      if not (String.length e.msg >= String.length frag) then Alcotest.failf "weird error";
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e.msg frag)
        true (contains e.msg frag)
  in
  expect_err "_start: bogus r1, r2\n halt" "unknown instruction";
  expect_err "_start: movi r99, 1\n halt" "bad register";
  expect_err "_start: jmp nowhere\n halt" "undefined label";
  expect_err "_start: halt\n_start: halt" "duplicate label";
  expect_err "x: halt" "_start"

(* --- machine semantics --- *)

let run_asm ?(max_cycles = 1_000_000) ?(on_sys = fun _ -> Machine.Sys_kill "unexpected sys")
    src =
  let img = Asm.assemble_exn src in
  let m = Loader.load img in
  let stop = Machine.run m ~on_sys ~max_cycles in
  (m, stop)

let check_halted what expected ((_ : Machine.t), stop) =
  match stop with
  | Machine.Halted v -> Alcotest.(check int) what expected v
  | Machine.Faulted (_, pc) -> Alcotest.failf "%s: faulted at 0x%x" what pc
  | Machine.Killed r -> Alcotest.failf "%s: killed: %s" what r
  | Machine.Cycle_limit -> Alcotest.failf "%s: cycle limit" what

let test_arith () =
  check_halted "arith" 7
    (run_asm
       {|
_start: movi r1, 10
        movi r2, 3
        div r3, r1, r2    ; 3
        mod r4, r1, r2    ; 1
        add r0, r3, r4    ; 4
        movi r5, 3
        add r0, r0, r5    ; 7
        halt
|})

let test_call_ret_stack () =
  check_halted "call/ret" 21
    (run_asm
       {|
_start: movi r1, 5
        call f
        halt
f:      push r1
        movi r2, 16
        add r1, r1, r2
        pop r2            ; r2 = 5
        add r0, r1, r2    ; 21+5? r1=21, r2=5 -> 26? no: r1=5+16=21, r0=21+5=26
        movi r3, 5
        sub r0, r0, r3    ; 21
        ret
|})

let test_memory_ops () =
  check_halted "ld/st/ldb/stb" 0x7f
    (run_asm
       {|
_start: movi r1, buf
        movi r2, 0x7f
        st [r1+0], r2
        ldb r0, [r1+0]
        halt
        .data
buf:    .word 0
|})

let test_branches_loop () =
  (* sum 1..10 = 55 *)
  check_halted "loop" 55
    (run_asm
       {|
_start: movi r1, 0        ; i
        movi r2, 0        ; sum
        movi r3, 10
loop:   bge r1, r3, done
        addi r1, r1, 1
        add r2, r2, r1
        jmp loop
done:   mov r0, r2
        halt
|})

let test_fault_div_zero () =
  let _, stop = run_asm "_start: movi r1, 1\n movi r2, 0\n div r0, r1, r2\n halt" in
  match stop with
  | Machine.Faulted (Machine.Div_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected div-by-zero fault"

let test_fault_bad_address () =
  let _, stop = run_asm "_start: movi r1, 0x7fffffff\n ld r0, [r1+0]\n halt" in
  match stop with
  | Machine.Faulted (Machine.Bad_address _, _) -> ()
  | _ -> Alcotest.fail "expected bad-address fault"

(* Addresses near [max_int]: [addr + len] wraps negative there, so a bounds
   check written as [addr + len <= size] would accept them and the blit
   would raise. Every accessor must refuse them instead. *)
let test_wrapping_addresses_refused () =
  let m = Machine.create ~mem_size:4096 in
  let buf = Bytes.create 16 in
  List.iter
    (fun addr ->
      let what f = Printf.sprintf "%s at 0x%x" f addr in
      Alcotest.(check (option string)) (what "read_mem") None (Machine.read_mem m ~addr ~len:16);
      Alcotest.(check (option int)) (what "read_word") None (Machine.read_word m addr);
      Alcotest.(check bool) (what "read_into") false
        (Machine.read_into m ~addr ~buf ~pos:0 ~len:16);
      Alcotest.(check bool) (what "write_mem") false
        (Machine.write_mem m ~addr (String.make 16 'x'));
      Alcotest.(check bool) (what "write_from") false
        (Machine.write_from m ~addr ~buf ~pos:0 ~len:16))
    [ max_int; max_int - 15 ]

let test_wrapping_buffer_offsets_refused () =
  (* the host-buffer side of a copy: [pos + len] on the buffer must not
     wrap either, in both directions, and a refused copy moves no byte *)
  let m = Machine.create ~mem_size:4096 in
  let buf = Bytes.make 16 'b' in
  List.iter
    (fun pos ->
      let what f = Printf.sprintf "%s with buffer pos 0x%x" f pos in
      Alcotest.(check bool) (what "read_into") false
        (Machine.read_into m ~addr:0 ~buf ~pos ~len:16);
      Alcotest.(check bool) (what "write_from") false
        (Machine.write_from m ~addr:0 ~buf ~pos ~len:16))
    [ max_int; max_int - 15 ];
  Alcotest.(check string) "buffer untouched" (String.make 16 'b') (Bytes.to_string buf);
  Alcotest.(check (option string)) "memory untouched" (Some (String.make 16 '\000'))
    (Machine.read_mem m ~addr:0 ~len:16)

let test_fault_bad_opcode () =
  (* jump into the data section, which holds non-instruction bytes *)
  let _, stop =
    run_asm "_start: jmp data\n halt\n .data\ndata: .byte 0xff,0xff,0xff,0xff,0xff,0xff,0xff,0xff"
  in
  match stop with
  | Machine.Faulted (Machine.Bad_opcode _, _) -> ()
  | _ -> Alcotest.fail "expected bad-opcode fault"

let test_cycle_limit () =
  let _, stop = run_asm ~max_cycles:1000 "_start: jmp _start" in
  match stop with
  | Machine.Cycle_limit -> ()
  | _ -> Alcotest.fail "expected cycle limit"

let test_sys_hook () =
  (* the kernel hook sees the call site and sets a return value *)
  let img =
    Asm.assemble_exn
      {|
_start: movi r0, 39       ; syscall number
        movi r1, 7
        sys
        halt
|}
  in
  let m = Loader.load img in
  let sites = ref [] in
  let on_sys (mach : Machine.t) =
    sites := (mach.pc - Isa.instr_size) :: !sites;
    let number = mach.regs.(0) and arg = mach.regs.(1) in
    mach.regs.(0) <- (number * 100) + arg;
    Machine.Sys_continue
  in
  (match Machine.run m ~on_sys ~max_cycles:100000 with
   | Machine.Halted v -> Alcotest.(check int) "sys result" 3907 v
   | _ -> Alcotest.fail "did not halt");
  Alcotest.(check int) "one sys" 1 (List.length !sites);
  Alcotest.(check int) "call site is the SYS pc" (Asm.text_base + (2 * Isa.instr_size))
    (List.hd !sites)

let test_sys_kill () =
  let _, stop =
    run_asm ~on_sys:(fun _ -> Machine.Sys_kill "policy violation") "_start: sys\n halt"
  in
  match stop with
  | Machine.Killed r -> Alcotest.(check string) "reason" "policy violation" r
  | _ -> Alcotest.fail "expected kill"

let test_stack_overflow_overwrites_return () =
  (* A function stores past the end of a stack buffer and clobbers its own
     return address, redirecting control — the attack primitive the paper's
     monitor must confine. *)
  let src =
    {|
_start: call victim
        movi r0, 1        ; normal return path
        halt
evil:   movi r0, 666
        halt
victim: addi r13, r13, -16  ; 16-byte local buffer; saved ret is at [r13+16]
        movi r1, evil
        st [r13+16], r1     ; "overflow": overwrite return address
        addi r13, r13, 16
        ret
|}
  in
  check_halted "hijacked return" 666 (run_asm src)

let test_rdcyc_monotonic () =
  let m, stop =
    run_asm
      {|
_start: rdcyc r1
        movi r3, 0
        movi r4, 100
l:      bge r3, r4, d
        addi r3, r3, 1
        jmp l
d:      rdcyc r2
        sub r0, r2, r1
        halt
|}
  in
  (match stop with
   | Machine.Halted delta -> Alcotest.(check bool) "cycles advanced" true (delta > 100)
   | _ -> Alcotest.fail "did not halt");
  Alcotest.(check bool) "machine counter grew" true (m.Machine.cycles > 0)

let test_loader_brk () =
  let img = sample_image () in
  let brk = Loader.initial_brk img in
  Alcotest.(check int) "brk page aligned" 0 (brk mod Asm.page_size);
  List.iter
    (fun (s : Obj_file.section) ->
      Alcotest.(check bool) (s.sec_name ^ " below brk") true (s.sec_addr + s.sec_size <= brk))
    img.Obj_file.sections

let prop_asm_pp_roundtrip =
  (* Isa.pp output must reassemble to the same instruction. *)
  QCheck.Test.make ~name:"pp/assemble roundtrip" ~count:500 arbitrary_instr (fun i ->
      (* discard instructions whose immediates the assembler would reject *)
      let ok_target t = t >= 0 in
      let valid =
        match i with
        | Isa.Br (_, _, _, t) | Isa.Jmp t | Isa.Call t -> ok_target t
        | _ -> true
      in
      QCheck.assume valid;
      let src = Format.asprintf "_start: %a\n halt" Isa.pp i in
      match Asm.assemble src with
      | Error _ -> false
      | Ok img ->
        let text = Obj_file.text_section img in
        Isa.decode (Bytes.of_string text.sec_payload) ~pos:0 = Some i)

let suite =
  [ Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    Alcotest.test_case "encode bounds" `Quick test_encode_bounds;
    Alcotest.test_case "sef roundtrip" `Quick test_sef_roundtrip;
    Alcotest.test_case "sef bad magic" `Quick test_sef_bad_magic;
    Alcotest.test_case "sef truncated" `Quick test_sef_truncated;
    Alcotest.test_case "symbols sections relocs" `Quick test_symbols_and_sections;
    Alcotest.test_case "assembler errors" `Quick test_asm_errors;
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "call/ret/stack" `Quick test_call_ret_stack;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "branch loop" `Quick test_branches_loop;
    Alcotest.test_case "div by zero faults" `Quick test_fault_div_zero;
    Alcotest.test_case "bad address faults" `Quick test_fault_bad_address;
    Alcotest.test_case "wrapping addresses refused" `Quick test_wrapping_addresses_refused;
    Alcotest.test_case "wrapping buffer offsets refused" `Quick
      test_wrapping_buffer_offsets_refused;
    Alcotest.test_case "bad opcode faults" `Quick test_fault_bad_opcode;
    Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
    Alcotest.test_case "sys hook sees call site" `Quick test_sys_hook;
    Alcotest.test_case "sys kill" `Quick test_sys_kill;
    Alcotest.test_case "stack smash hijacks return" `Quick test_stack_overflow_overwrites_return;
    Alcotest.test_case "rdcyc monotonic" `Quick test_rdcyc_monotonic;
    Alcotest.test_case "loader brk" `Quick test_loader_brk ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_isa_roundtrip; prop_asm_pp_roundtrip ]

let () = Alcotest.run "svm" [ ("svm", suite) ]
