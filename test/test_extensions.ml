(* Tests for the §5 extensions: metapolicies/templates (§5.2), capability
   tracking (§5.3), multi-value argument sets and pattern constraints
   (§5.1) wired through the installer and kernel checker, and in-kernel
   file-name normalization (§5.4). *)

open Oskernel
module Cmac = Asc_crypto.Cmac

let key = Cmac.of_raw "extension-test-k"
let personality = Personality.linux

let compile = Minic.Driver.compile_exn ~personality

let install ?options ?overrides src =
  let img = compile src in
  match Asc_core.Installer.install ~key ~personality ?options ?overrides ~program:"ext" img with
  | Ok inst -> inst
  | Error e -> Alcotest.failf "install: %s" e

let run ?(setup = fun _ -> ()) ?(monitors = []) ?(stdin = "") image =
  let kernel = Kernel.create ~personality () in
  setup kernel;
  let ms = List.map (fun f -> f kernel) monitors in
  (match ms with
   | [] -> ()
   | _ -> Kernel.set_monitor kernel (Some (Kernel.compose_monitors "composed" ms)));
  let proc = Kernel.spawn kernel ~stdin ~program:"ext" image in
  let stop = Kernel.run kernel proc ~max_cycles:100_000_000 in
  (kernel, proc, stop)

let checker kernel = Asc_core.Checker.monitor ~kernel ~key ()
let checker_norm kernel = Asc_core.Checker.monitor ~kernel ~key ~normalize_paths:true ()
let captrack _kernel = Asc_core.Captrack.monitor_for personality

(* ---- metapolicy (§5.2) ---- *)

(* a program whose open path is computed at runtime: static analysis cannot
   constrain it, leaving a template hole *)
let dynamic_open_src =
  {|
char path[32];
int main() {
  strcpy(path, "/tmp/");
  path[5] = 'a' + getpid() % 3;
  path[6] = 0;
  int fd = open(path, 65, 420);
  if (fd >= 0) { close(fd); }
  return 0;
}
|}

let test_metapolicy_finds_holes () =
  let img = compile dynamic_open_src in
  match Asc_core.Installer.generate_policy ~personality ~program:"dyn" img with
  | Error e -> Alcotest.failf "policy: %s" e
  | Ok pol ->
    let holes = Asc_core.Metapolicy.check Asc_core.Metapolicy.strict_exec pol in
    Alcotest.(check bool) "one hole for open's path" true
      (List.exists
         (fun h -> h.Asc_core.Metapolicy.h_sem = Syscall.Open && h.Asc_core.Metapolicy.h_arg = 0)
         holes);
    (* a static program satisfies the same metapolicy *)
    let img2 = compile {|int main() { int fd = open("/etc/motd", 0, 0); close(fd); return 0; }|} in
    (match Asc_core.Installer.generate_policy ~personality ~program:"static" img2 with
     | Ok pol2 ->
       Alcotest.(check bool) "static program satisfied" true
         (Asc_core.Metapolicy.satisfied Asc_core.Metapolicy.strict_exec pol2)
     | Error e -> Alcotest.failf "policy2: %s" e)

let test_template_fill_and_enforce () =
  (* the admin fills the hole with the pattern "/tmp/*"; the kernel then
     enforces it via the extension block *)
  let img = compile dynamic_open_src in
  let pol =
    match Asc_core.Installer.generate_policy ~personality ~program:"dyn" img with
    | Ok p -> p
    | Error e -> Alcotest.failf "policy: %s" e
  in
  let holes = Asc_core.Metapolicy.check Asc_core.Metapolicy.strict_exec pol in
  let fillings = List.map (fun h -> (h, Asc_core.Policy.A_pattern "/tmp/*")) holes in
  let overrides = Asc_core.Metapolicy.to_overrides fillings in
  let inst = install ~overrides dynamic_open_src in
  let _, _, stop = run ~monitors:[ checker ] inst.Asc_core.Installer.image in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "legit run killed: %s" r
   | _ -> Alcotest.fail "abnormal run");
  (* the completed policy pretty-prints the pattern *)
  let filled = Asc_core.Metapolicy.fill pol fillings in
  Alcotest.(check bool) "pattern recorded" true
    (List.exists
       (fun s ->
         Array.exists
           (fun a -> a = Asc_core.Policy.A_pattern "/tmp/*")
           s.Asc_core.Policy.s_args)
       filled.Asc_core.Policy.sites)

let test_pattern_violation_blocked () =
  (* same dynamic-open program but the admin restricts to "/etc/*": the
     program's /tmp/x open must be denied *)
  let img = compile dynamic_open_src in
  let pol =
    match Asc_core.Installer.generate_policy ~personality ~program:"dyn" img with
    | Ok p -> p
    | Error e -> Alcotest.failf "policy: %s" e
  in
  let holes = Asc_core.Metapolicy.check Asc_core.Metapolicy.strict_exec pol in
  let overrides =
    Asc_core.Metapolicy.to_overrides
      (List.map (fun h -> (h, Asc_core.Policy.A_pattern "/etc/*")) holes)
  in
  let inst = install ~overrides dynamic_open_src in
  let _, _, stop = run ~monitors:[ checker ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Killed reason ->
    Alcotest.(check bool) ("pattern denial: " ^ reason) true (String.length reason > 0)
  | _ -> Alcotest.fail "pattern violation not blocked"

let test_string_override_rejected () =
  let img = compile dynamic_open_src in
  match
    Asc_core.Installer.install ~key ~personality
      ~overrides:[ ((1 lsl 20) + 5, 0, Asc_core.Policy.A_string "/tmp/a") ]
      ~program:"dyn" img
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "hand-supplied string constraint accepted"

(* ---- multi-value sets (§5.1 via use_extensions) ---- *)

let two_fd_src =
  {|
int main() {
  int which = getpid() % 2;
  int fd;
  if (which) { fd = 1; } else { fd = 2; }
  write(fd, "x", 1);
  return 0;
}
|}

let test_one_of_enforced () =
  let options = { Asc_core.Installer.default_options with use_extensions = true } in
  let inst = install ~options two_fd_src in
  (* policy records the two-value set *)
  Alcotest.(check bool) "A_one_of in policy" true
    (List.exists
       (fun s ->
         Array.exists
           (fun a ->
             match a with Asc_core.Policy.A_one_of [ 1; 2 ] -> true | _ -> false)
           s.Asc_core.Policy.s_args)
       inst.Asc_core.Installer.policy.Asc_core.Policy.sites);
  (* the legitimate run passes *)
  let _, _, stop = run ~monitors:[ checker ] inst.Asc_core.Installer.image in
  (match stop with
   | Svm.Machine.Halted 0 -> ()
   | Svm.Machine.Killed r -> Alcotest.failf "legit run killed: %s" r
   | _ -> Alcotest.fail "abnormal");
  (* tampering the fd to 3 at runtime violates the set *)
  let patch (m : Svm.Machine.t) =
    (* find 'movi r1, 1' and 'movi r1, 2' feeding the write and bump them *)
    let a = ref Svm.Asm.text_base in
    let patched = ref false in
    while not !patched && !a < 0x20000 do
      (match Svm.Machine.read_mem m ~addr:!a ~len:8 with
       | Some bytes ->
         (match Svm.Isa.decode (Bytes.of_string bytes) ~pos:0 with
          | Some (Svm.Isa.Movi (4, 1)) | Some (Svm.Isa.Movi (4, 2)) -> ()
          | _ -> ())
       | None -> ());
      a := !a + 8
    done
  in
  ignore patch;
  (* direct register attack instead: wrap the checker and corrupt r1 before
     the call reaches it -- the set check reads the live register *)
  let kernel = Kernel.create ~personality () in
  let real = Asc_core.Checker.monitor ~kernel ~key () in
  let corrupt =
    { Kernel.monitor_name = "corrupt";
      pre_syscall =
        (fun p ~site ~number ->
          let m = p.Process.machine in
          if Personality.sem_of personality number = Some Syscall.Write then
            m.Svm.Machine.regs.(1) <- 7;
          real.Kernel.pre_syscall p ~site ~number);
      post_syscall = Kernel.no_post }
  in
  Kernel.set_monitor kernel (Some corrupt);
  let proc = Kernel.spawn kernel ~program:"ext" inst.Asc_core.Installer.image in
  match Kernel.run kernel proc ~max_cycles:100_000_000 with
  | Svm.Machine.Killed reason ->
    Alcotest.(check bool) ("set denial: " ^ reason) true (String.length reason > 0)
  | _ -> Alcotest.fail "out-of-set value not blocked"

(* ---- capability tracking (§5.3) ---- *)

let test_captrack_allows_legitimate () =
  let src =
    {|
int main() {
  int fd = open("/etc/motd", 0, 0);
  if (fd < 0) { return 1; }
  char buf[16];
  read(fd, buf, 16);
  close(fd);
  return 0;
}
|}
  in
  let inst = install src in
  let setup (k : Kernel.t) =
    match Vfs.create_file k.Kernel.vfs ~cwd:"/" "/etc/motd" ~contents:"hi" with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "setup"
  in
  let _, _, stop = run ~setup ~monitors:[ checker; captrack ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Halted 0 -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "legit fd use killed: %s" r
  | _ -> Alcotest.fail "abnormal"

let test_captrack_blocks_forged_fd () =
  (* reads descriptor 7 without ever opening anything *)
  let src = {|
int main() {
  char buf[8];
  read(7, buf, 8);
  return 0;
}
|} in
  let inst = install src in
  let _, _, stop = run ~monitors:[ checker; captrack ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Killed reason ->
    Alcotest.(check bool) ("forged fd: " ^ reason) true (String.length reason > 0)
  | _ -> Alcotest.fail "forged descriptor not blocked"

let test_captrack_fd_reuse_after_close () =
  (* close then re-open: the same descriptor number must be re-issued *)
  let src =
    {|
int main() {
  int a = open("/tmp/f", 65, 420);
  close(a);
  int b = open("/tmp/f", 0, 0);
  char buf[4];
  read(b, buf, 4);
  close(b);
  return 0;
}
|}
  in
  let inst = install src in
  let _, _, stop = run ~monitors:[ checker; captrack ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Halted 0 -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "fd reuse killed: %s" r
  | _ -> Alcotest.fail "abnormal"

(* ---- file name normalization (§5.4) ---- *)

let motd_reader =
  {|
int main() {
  int fd = open("/tmp/foo", 0, 0);
  if (fd < 0) { return 1; }
  char buf[16];
  read(fd, buf, 16);
  close(fd);
  return 0;
}
|}

let test_normalize_blocks_symlink_swap () =
  let inst = install motd_reader in
  (* the attacker points /tmp/foo at /etc/passwd before the run *)
  let setup (k : Kernel.t) =
    (match Vfs.create_file k.Kernel.vfs ~cwd:"/" "/etc/passwd" ~contents:"secret" with
     | Ok () -> ()
     | Error _ -> Alcotest.fail "setup");
    match Vfs.symlink k.Kernel.vfs ~cwd:"/" ~target:"/etc/passwd" ~linkpath:"/tmp/foo" with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "symlink"
  in
  let _, _, stop = run ~setup ~monitors:[ checker_norm ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Killed reason ->
    Alcotest.(check bool) ("symlink swap: " ^ reason) true (String.length reason > 0)
  | _ -> Alcotest.fail "symlink redirection not blocked"

(* ---- a deny keeps step 3's resolution in its telemetry record ---- *)

let deployment kernel = Asc_core.Checker.deployment ~kernel ~key ~normalize_paths:true ()

(* A monitor, run before the checker, that overwrites the policy state's
   lbMAC at a site's [visit]th trap, as a memory-corruption attack would. *)
let corrupt_lbmac ~visit _kernel =
  let seen = Hashtbl.create 8 in
  { Kernel.monitor_name = "corrupt-lbmac";
    pre_syscall =
      (fun p ~site ~number:_ ->
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen site) in
        Hashtbl.replace seen site n;
        let m = p.Process.machine in
        if n = visit then
          ignore (Svm.Machine.write_mem m ~addr:(m.Svm.Machine.regs.(10) + 8) (String.make 16 'x'));
        Kernel.Allow);
    post_syscall = Kernel.no_post }

(* [src] is denied once, at [step], and [n] calls (the denied one among
   them) recorded step 3's resolution [cf]. *)
let denied_with ~monitors ~step cf n src =
  match run ~monitors (install src).Asc_core.Installer.image with
  | kernel, _, Svm.Machine.Killed _ ->
    let agg = Asc_obs.Telemetry.aggregate (Kernel.telemetry kernel) in
    Alcotest.(check (list (pair string int))) "one deny" [ (step, 1) ]
      agg.Asc_obs.Telemetry.t_deny_steps;
    Alcotest.(check int) (Asc_obs.Telemetry.cf_label cf) n
      agg.Asc_obs.Telemetry.t_cf.(Asc_obs.Telemetry.cf_index cf)
  | _ -> Alcotest.failf "not denied at %s" step

let test_deny_keeps_cf_resolution () =
  let loop = "int main() { int k; for (k = 0; k < 5; k = k + 1) { getpid(); } return 0; }" in
  (* step 3 denies the first trap of the program (slow path), then a
     site's third, after a second that hit the bitset as it does *)
  denied_with ~monitors:[ corrupt_lbmac ~visit:1; deployment ] ~step:"control_flow"
    Asc_obs.Telemetry.Cf_slow 1 loop;
  denied_with ~monitors:[ corrupt_lbmac ~visit:3; deployment ] ~step:"control_flow"
    Asc_obs.Telemetry.Cf_hit 2 loop;
  (* normalization, which runs after step 3, denies the repeat of an open
     whose path has since become a symlink: a bitset hit *)
  denied_with ~monitors:[ deployment ] ~step:"normalization" Asc_obs.Telemetry.Cf_hit 1
    {|
int main() {
  int k;
  close(open("/tmp/g", 65, 420));
  for (k = 0; k < 2; k = k + 1) {
    close(open("/tmp/f", 65, 420));
    if (k == 0) { unlink("/tmp/f"); symlink("/tmp/g", "/tmp/f"); }
  }
  return 0;
}
|}

let test_normalize_allows_plain_file () =
  let inst = install motd_reader in
  let setup (k : Kernel.t) =
    match Vfs.create_file k.Kernel.vfs ~cwd:"/" "/tmp/foo" ~contents:"data" with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "setup"
  in
  let _, _, stop = run ~setup ~monitors:[ checker_norm ] inst.Asc_core.Installer.image in
  match stop with
  | Svm.Machine.Halted 0 -> ()
  | Svm.Machine.Killed r -> Alcotest.failf "plain file killed: %s" r
  | _ -> Alcotest.fail "abnormal"

let () =
  Alcotest.run "extensions"
    [ ( "metapolicy",
        [ Alcotest.test_case "holes found" `Quick test_metapolicy_finds_holes;
          Alcotest.test_case "template fill + enforce" `Quick test_template_fill_and_enforce;
          Alcotest.test_case "pattern violation blocked" `Quick test_pattern_violation_blocked;
          Alcotest.test_case "string override rejected" `Quick test_string_override_rejected ] );
      ( "value-sets",
        [ Alcotest.test_case "one-of recorded and enforced" `Quick test_one_of_enforced ] );
      ( "captrack",
        [ Alcotest.test_case "legitimate fd flow" `Quick test_captrack_allows_legitimate;
          Alcotest.test_case "forged fd blocked" `Quick test_captrack_blocks_forged_fd;
          Alcotest.test_case "fd reuse after close" `Quick test_captrack_fd_reuse_after_close ] );
      ( "normalize",
        [ Alcotest.test_case "symlink swap blocked" `Quick test_normalize_blocks_symlink_swap;
          Alcotest.test_case "a deny keeps step 3's resolution" `Quick
            test_deny_keeps_cf_resolution;
          Alcotest.test_case "plain file allowed" `Quick test_normalize_allows_plain_file ] ) ]
