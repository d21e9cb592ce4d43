(* Cross-cutting integration tests: authenticated execve chains (the
   per-process nonce and the fresh image's policy state must line up),
   broader syscall coverage through compiled programs, and checker
   robustness on malformed extension blocks. *)

open Oskernel
module Cmac = Asc_crypto.Cmac

let key = Cmac.of_raw "integration-key!"
let personality = Personality.linux

let install ~program_id ~program src =
  let img = Minic.Driver.compile_exn ~personality src in
  match
    Asc_core.Installer.install ~key ~personality
      ~options:{ Asc_core.Installer.default_options with program_id }
      ~program img
  with
  | Ok inst -> inst.Asc_core.Installer.image
  | Error e -> Alcotest.failf "install %s: %s" program e

(* --- authenticated execve chain --- *)

let test_execve_chain_under_enforcement () =
  (* A (id 1) writes, then execs B (id 2); B makes its own syscalls. The
     kernel-side nonce counter resets on exec, and B's image carries a fresh
     lastBlock sentinel, so B's control-flow chain verifies from scratch. *)
  let b_img =
    install ~program_id:2 ~program:"progB"
      {|
int main() {
  puts_str("B running\n");
  int fd = open("/tmp/b.out", 65, 420);
  write(fd, "B", 1);
  close(fd);
  return 9;
}
|}
  in
  let a_img =
    install ~program_id:1 ~program:"progA"
      {|
int main() {
  puts_str("A before exec\n");
  execve("/bin/progB", 0, 0);
  puts_str("unreachable\n");
  return 1;
}
|}
  in
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ()));
  Kernel.install_binary kernel ~path:"/bin/progB" b_img;
  let proc = Kernel.spawn kernel ~program:"progA" a_img in
  (match Kernel.run kernel proc ~max_cycles:100_000_000 with
   | Svm.Machine.Halted 9 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "killed: %s" r
   | _ -> Alcotest.fail "chain did not reach B's exit");
  Alcotest.(check string) "both programs' output" "A before exec\nB running\n"
    (Kernel.stdout_of proc);
  (match Vfs.read_file kernel.Kernel.vfs ~cwd:"/" "/tmp/b.out" with
   | Ok s -> Alcotest.(check string) "B's file" "B" s
   | Error _ -> Alcotest.fail "B's file missing");
  (* B makes 7 monitored calls after exec: startup brk + uname, the
     puts_str write, open, write, close, exit. Were the nonce NOT reset,
     B's first control-flow check would already have killed the process;
     the exact count pins the reset. *)
  Alcotest.(check int) "nonce reset on exec" 7 proc.Process.counter

let test_execve_unauthenticated_target_blocked () =
  (* exec'ing an ORIGINAL (uninstalled) binary under enforcement: the new
     image's first syscall is unauthenticated and the process dies *)
  let plain_b = Minic.Driver.compile_exn ~personality "int main() { getpid(); return 0; }" in
  let a_img =
    install ~program_id:1 ~program:"progA"
      {|int main() { execve("/bin/plain", 0, 0); return 1; }|}
  in
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ()));
  Kernel.install_binary kernel ~path:"/bin/plain" plain_b;
  let proc = Kernel.spawn kernel ~program:"progA" a_img in
  match Kernel.run kernel proc ~max_cycles:100_000_000 with
  | Svm.Machine.Killed "unauthenticated system call" -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "unexpected: %s" r
  | _ -> Alcotest.fail "unauthenticated exec target not blocked"

(* --- broader syscall coverage through compiled programs --- *)

let run_minic ?(setup = fun _ -> ()) ?(stdin = "") src =
  let img = Minic.Driver.compile_exn ~personality src in
  let kernel = Kernel.create ~personality () in
  setup kernel;
  let proc = Kernel.spawn kernel ~stdin ~program:"it" img in
  let stop = Kernel.run kernel proc ~max_cycles:100_000_000 in
  (kernel, proc, stop)

let expect_exit what expected (_, _, stop) =
  match (stop : Svm.Machine.stop) with
  | Svm.Machine.Halted v -> Alcotest.(check int) what expected v
  | Svm.Machine.Killed r -> Alcotest.failf "%s killed: %s" what r
  | _ -> Alcotest.failf "%s abnormal" what

let test_lseek_and_dup () =
  expect_exit "lseek/dup" 0
    (run_minic
       {|
int main() {
  int fd = open("/tmp/seek", 65, 420);
  write(fd, "abcdef", 6);
  lseek(fd, 1, 0);
  int fd2 = dup(fd);
  char b[4];
  /* dup shares the file offset */
  read(fd2, b, 2);
  if (b[0] != 'b' || b[1] != 'c') { return 1; }
  lseek(fd, 0, 2);
  write(fd, "!", 1);
  close(fd2);
  close(fd);
  int r = open("/tmp/seek", 0, 0);
  char all[16];
  int n = read(r, all, 16);
  if (n != 7) { return 2; }
  if (all[6] != '!') { return 3; }
  close(r);
  return 0;
}
|})

let test_symlink_rename_readlink () =
  expect_exit "symlink/readlink/rename" 0
    (run_minic
       {|
char target[32];
int main() {
  int fd = open("/tmp/orig", 65, 420);
  write(fd, "x", 1);
  close(fd);
  if (symlink("/tmp/orig", "/tmp/ln") != 0) { return 1; }
  int n = readlink("/tmp/ln", target, 32);
  if (n != 9) { return 2; }
  /* open through the link */
  int via = open("/tmp/ln", 0, 0);
  if (via < 0) { return 3; }
  close(via);
  if (rename("/tmp/orig", "/tmp/moved") != 0) { return 4; }
  /* the link now dangles */
  if (open("/tmp/ln", 0, 0) >= 0) { return 5; }
  if (unlink("/tmp/ln") != 0) { return 6; }
  return 0;
}
|})

let test_chdir_getcwd () =
  expect_exit "chdir/getcwd" 0
    (run_minic
       {|
char cwd[64];
int main() {
  mkdir("/work", 493);
  if (chdir("/work") != 0) { return 1; }
  getcwd(cwd, 64);
  if (strcmp(cwd, "/work") != 0) { return 2; }
  /* relative paths resolve against the cwd */
  int fd = open("rel.txt", 65, 420);
  write(fd, "r", 1);
  close(fd);
  if (open("/work/rel.txt", 0, 0) < 0) { return 3; }
  return 0;
}
|})

let test_writev_and_fstat () =
  expect_exit "writev/fstat" 0
    (run_minic
       {|
int iov[4];
char part1[8];
char part2[8];
char st[16];
int main() {
  strcpy(part1, "hel");
  strcpy(part2, "lo");
  iov[0] = part1;
  iov[1] = 3;
  iov[2] = part2;
  iov[3] = 2;
  int fd = open("/tmp/v", 65, 420);
  if (writev(fd, iov, 2) != 5) { return 1; }
  if (fstat(fd, st) != 0) { return 2; }
  if (st[0] != 5) { return 3; }
  close(fd);
  return 0;
}
|})

let test_sendto_socket () =
  expect_exit "socket/sendto" 0
    (run_minic
       {|
int main() {
  int s = socket(1, 1, 0);
  if (s < 0) { return 1; }
  if (connect(s, "addr", 4) != 0) { return 2; }
  if (sendto(s, "ping", 4, 0, 0, 0) != 4) { return 3; }
  char b[8];
  if (recvfrom(s, b, 8, 0, 0, 0) != 0) { return 4; }
  close(s);
  return 0;
}
|})

(* --- checker robustness on malformed extension blocks --- *)

let checker_verdict ~patch_ext =
  (* build an installed program with a one_of extension, then corrupt the
     extension contents *after* install but keep its MAC consistent?  no —
     corrupt both content and observe the checker deny gracefully *)
  let src =
    {|
int main() {
  int fd;
  if (getpid() % 2) { fd = 1; } else { fd = 2; }
  write(fd, "x", 1);
  return 0;
}
|}
  in
  let img = Minic.Driver.compile_exn ~personality src in
  let inst =
    match
      Asc_core.Installer.install ~key ~personality
        ~options:{ Asc_core.Installer.default_options with use_extensions = true }
        ~program:"ext" img
    with
    | Ok i -> i
    | Error e -> Alcotest.failf "install: %s" e
  in
  let kernel = Kernel.create ~personality () in
  Kernel.set_monitor kernel (Some (Asc_core.Checker.monitor ~kernel ~key ()));
  let proc = Kernel.spawn kernel ~program:"ext" inst.Asc_core.Installer.image in
  patch_ext proc.Process.machine inst.Asc_core.Installer.image;
  Kernel.run kernel proc ~max_cycles:100_000_000

let test_truncated_ext_block_denied () =
  (* shrink the recorded length in the extension AS header: the MAC over
     {addr,len,mac} in the encoded call changes -> call MAC mismatch; no
     crash *)
  let patch m img =
    let asc = Option.get (Svm.Obj_file.section_named img ".asc") in
    (* find an AS whose contents start with an ext entry (argidx<6, kind 1) *)
    let base = asc.Svm.Obj_file.sec_addr in
    let found = ref false in
    for off = 0 to asc.Svm.Obj_file.sec_size - 24 do
      if not !found then begin
        match Svm.Machine.read_mem m ~addr:(base + off) ~len:4 with
        | Some l4 ->
          let len =
            Char.code l4.[0] lor (Char.code l4.[1] lsl 8) lor (Char.code l4.[2] lsl 16)
          in
          (match Svm.Machine.read_mem m ~addr:(base + off + 20) ~len:2 with
           | Some e2
             when len > 2 && len < 64 && Char.code e2.[0] < 6 && Char.code e2.[1] = 1 ->
             ignore (Svm.Machine.write_byte m (base + off) 1);
             found := true
           | _ -> ())
        | None -> ()
      end
    done;
    Alcotest.(check bool) "ext AS located" true !found
  in
  match checker_verdict ~patch_ext:patch with
  | Svm.Machine.Killed _ -> ()
  | _ -> Alcotest.fail "corrupted extension header not denied"

(* --- the trap path is total under hostile registers --- *)

(* A guest controls every register at a trap. A call-MAC pointer (r11) or
   policy-state pointer (r10) near [max_int] makes [addr + len] wrap, and a
   bounds check written that way let the checker's MAC read, or the deny
   path's forensic snapshot, raise out of [Kernel.run]. Each must instead
   end the process with a typed violation. *)
let test_hostile_registers_killed () =
  let img = install ~program_id:1 ~program:"hostile" "int main() { getpid(); return 0; }" in
  List.iter
    (fun (reg, v) ->
      let what = Printf.sprintf "r%d = 0x%x" reg v in
      let kernel = Kernel.create ~personality () in
      let checker = Asc_core.Checker.deployment ~kernel ~key () in
      let pre (p : Process.t) ~site ~number =
        p.Process.machine.Svm.Machine.regs.(reg) <- v;
        checker.Kernel.pre_syscall p ~site ~number
      in
      Kernel.set_monitor kernel (Some { checker with Kernel.pre_syscall = pre });
      let proc = Kernel.spawn kernel ~program:"hostile" img in
      match Kernel.run kernel proc ~max_cycles:100_000_000 with
      | exception e -> Alcotest.failf "%s: Kernel.run raised %s" what (Printexc.to_string e)
      | Svm.Machine.Killed _ ->
        let steps =
          List.filter_map
            (function
              | Kernel.Violation { violation = v; _ } -> Some (Violation.step_name v.Violation.v_step)
              | _ -> None)
            (Kernel.audit_log kernel)
        in
        Alcotest.(check (list string)) (what ^ ": typed violation") [ "call_mac" ] steps
      | _ -> Alcotest.failf "%s: not killed" what)
    [ (11, max_int); (11, max_int - 15); (10, max_int); (10, max_int - 15) ]

let test_policy_pretty_printer () =
  let img =
    Minic.Driver.compile_exn ~personality
      {|int main() { int fd = open("/etc/x", 0, 0); close(fd); return 0; }|}
  in
  match Asc_core.Installer.generate_policy ~personality ~program:"pp" img with
  | Error e -> Alcotest.failf "policy: %s" e
  | Ok pol ->
    let text =
      String.concat "\n"
        (List.map (Format.asprintf "%a" Asc_core.Policy.pp_site) pol.Asc_core.Policy.sites)
    in
    let contains needle =
      let nh = String.length text and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "mentions open" true (contains "Permit open");
    Alcotest.(check bool) "mentions the path" true (contains "\"/etc/x\"");
    Alcotest.(check bool) "mentions predecessors" true (contains "Possible predecessors")

let () =
  Alcotest.run "integration"
    [ ( "integration",
        [ Alcotest.test_case "authenticated execve chain" `Quick
            test_execve_chain_under_enforcement;
          Alcotest.test_case "unauthenticated exec target blocked" `Quick
            test_execve_unauthenticated_target_blocked;
          Alcotest.test_case "lseek + dup share offsets" `Quick test_lseek_and_dup;
          Alcotest.test_case "symlink/readlink/rename" `Quick test_symlink_rename_readlink;
          Alcotest.test_case "chdir/getcwd + relative paths" `Quick test_chdir_getcwd;
          Alcotest.test_case "writev + fstat" `Quick test_writev_and_fstat;
          Alcotest.test_case "sockets" `Quick test_sendto_socket;
          Alcotest.test_case "corrupted extension denied" `Quick
            test_truncated_ext_block_denied;
          Alcotest.test_case "hostile registers end in a typed violation" `Quick
            test_hostile_registers_killed;
          Alcotest.test_case "policy pretty printer" `Quick test_policy_pretty_printer ] ) ]
