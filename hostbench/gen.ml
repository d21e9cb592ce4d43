(* Seeded input generators. Every input a workload feeds the system — program
   sources, file sets, request batches, tamper plans — comes from here and
   depends only on the seed and the op index, so one seed always gives the
   same inputs. *)

let rng ~seed ~salt ~index = Random.State.make [| seed; salt; index |]
let letter st = Char.chr (Char.code 'a' + Random.State.int st 26)
let letters st n = String.init n (fun _ -> letter st)
let modulus = 1_000_003

(* ----- steady: one request-loop server, many sessions ----- *)

type steady = {
  st_source : string;
  st_files : (string * string) list;  (* path, contents; index = file id *)
  st_bufsz : int;
  st_stride : int;
}

(* Six files, and sessions of 120 to 360 requests (240 on average): choices,
   not measurements. Six files give twelve literal-path sites. A session of 240 keeps the per-session spawn near a
   tenth of an op. Sessions vary in length, as clients of a server do, so op
   latency is spread out; with every op the same length, op latencies would
   sit at the host's fast or slow level and a run's median would jump
   between the two with the share of slow time in the run. *)
let steady_files = 6
let steady_requests = (120, 360)

(* The program serves a batch of 3-byte requests [op; file; arg] read from
   stdin: [r] open/lseek/read/close, [s] stat, [w] write, [p] getpid. Each
   file's open and stat sit at their own call site with a literal path (an
   authenticated string), like a server's fixed set of resources. The
   checksum touches two bytes per read so the interpreter's own work stays
   small next to the calls. Variant 0 is the server the sessions run;
   variant k has 3 + (k + 3) mod 7 files, so variants 0 to 6 have 3 to 9. *)
let steady ?(variant = 0) ~seed () =
  let files = 3 + ((variant + steady_files - 3) mod 7) in
  let st = rng ~seed ~salt:1 ~index:variant in
  let dir = "/srv/" ^ letters st 4 in
  let bufsz = 8 + (4 * Random.State.int st 3) in
  let stride = 3 + Random.State.int st 4 in
  let files =
    List.init files (fun i ->
        let size = (25 * stride) + bufsz + Random.State.int st 64 in
        (Printf.sprintf "%s/f%d" dir i, letters st size))
  in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "char req[%d];\nchar buf[%d];\nchar st[64];\nint sum;\n\n" (3 * snd steady_requests) bufsz;
  pr "int open_f(int f) {\n";
  List.iteri (fun i (p, _) -> pr "  if (f == %d) { return open(%S, 0, 0); }\n" i p) files;
  pr "  return -1;\n}\n\nint stat_f(int f) {\n";
  List.iteri (fun i (p, _) -> pr "  if (f == %d) { return stat(%S, st); }\n" i p) files;
  pr "  return -1;\n}\n\n";
  pr
    {|int main() {
  int n = read(0, req, %d);
  int out = open("%s/out", 65, 420);
  int i = 0;
  while (i + 3 <= n) {
    int op = req[i];
    int f = req[i + 1] - 'a';
    int a = req[i + 2] - 'a';
    if (op == 'r') {
      int fd = open_f(f);
      lseek(fd, a * %d, 0);
      int k = read(fd, buf, %d);
      sum = (sum * 31 + k + buf[0] + buf[%d]) %% %d;
      close(fd);
    }
    if (op == 's') { sum = (sum * 7 + f + stat_f(f)) %% %d; }
    if (op == 'w') { sum = (sum * 5 + write(out, buf, a + 1)) %% %d; }
    if (op == 'p') { if (getpid() > 0) { sum = (sum * 3 + 1) %% %d; } }
    i = i + 3;
  }
  close(out);
  print_int(sum);
  puts_str("\n");
  return 0;
}
|}
    (3 * snd steady_requests) dir stride bufsz (bufsz - 1) modulus modulus modulus modulus;
  { st_source = Buffer.contents b; st_files = files; st_bufsz = bufsz; st_stride = stride }

(* A session's request batch: a fixed mix (half reads, a fifth stats, the
   rest writes and getpids) over the file set. *)
let steady_batch s ~seed ~session =
  let st = rng ~seed ~salt:2 ~index:session in
  let lo, hi = steady_requests in
  String.concat ""
    (List.init (lo + Random.State.int st (hi - lo + 1)) (fun _ ->
         let x = Random.State.int st 20 in
         let op = if x < 10 then 'r' else if x < 14 then 's' else if x < 17 then 'w' else 'p' in
         let f = Char.chr (Char.code 'a' + Random.State.int st (List.length s.st_files)) in
         String.init 3 (function 0 -> op | 1 -> f | _ -> letter st)))

(* The checksum the program must print for a batch, computed from the
   generated files alone. *)
let steady_expected s batch =
  let sum = ref 0 in
  for r = 0 to (String.length batch / 3) - 1 do
    let op = batch.[3 * r] in
    let f = Char.code batch.[(3 * r) + 1] - Char.code 'a' in
    let a = Char.code batch.[(3 * r) + 2] - Char.code 'a' in
    let step v = sum := v mod modulus in
    match op with
    | 'r' ->
      let data = snd (List.nth s.st_files f) in
      let pos = a * s.st_stride in
      step
        ((!sum * 31) + s.st_bufsz + Char.code data.[pos]
        + Char.code data.[pos + s.st_bufsz - 1])
    | 's' -> step ((!sum * 7) + f)
    | 'w' -> step ((!sum * 5) + a + 1)
    | _ -> step ((!sum * 3) + 1)
  done;
  string_of_int !sum ^ "\n"

(* ----- churn: many distinct short programs ----- *)

(* The Andrew-style benchmark's tool runs (bench/baselines/BENCH_andrew.json:
   tasks, syscalls), the repository's measured stand-in for a stream of
   short programs. *)
let andrew_tasks_syscalls = (122, 1238)

let churn_dir = "/c"
let churn_inputs = 4
let churn_input_size = 128

let churn_files ~seed =
  let st = rng ~seed ~salt:3 ~index:0 in
  List.init churn_inputs (fun i ->
      (Printf.sprintf "%s/in%d" churn_dir i, letters st churn_input_size))

(* A churn program makes as many system calls as a tool run of the
   Andrew-style benchmark does on average: 1238 calls over 122 runs, 10
   each. Each program draws its count from 7 to 13, whose mean is that. *)
let andrew_calls =
  let tasks, calls = andrew_tasks_syscalls in
  (calls + (tasks / 2)) / tasks

(* Calls every program makes outside its statements: brk and uname in
   [__os_init], the two writes of its output, and exit. *)
let fixed_calls = 5

(* A short program of statements, each repeated 1-3 times, so every site
   takes only a few calls, until its call count is reached. Its first
   statement names a literal path, so the third trap (the first after
   [__os_init]) is one every tamper kind applies to. Output names carry the
   op index, so no program sees another's files. *)
let churn_program ~seed ~index =
  let st = rng ~seed ~salt:4 ~index in
  let b = Buffer.create 2048 in
  let pr fmt = Printf.bprintf b fmt in
  pr "char buf[32];\nchar st[64];\nint sum;\n\nint main() {\n  int i;\n  int fd;\n";
  let input () = Printf.sprintf "%s/in%d" churn_dir (Random.State.int st churn_inputs) in
  (* statement kind, calls per repetition *)
  let kinds = [ (`Read, 4); (`Write, 3); (`Stat, 1); (`Mkdir, 1); (`Getpid, 1) ] in
  let left = ref (andrew_calls - 3 + Random.State.int st 7 - fixed_calls) in
  let j = ref 0 in
  while !left > 0 do
    let fits = List.filter (fun (k, c) -> c <= !left && (!j > 0 || k <> `Getpid)) kinds in
    let kind, calls = List.nth fits (Random.State.int st (List.length fits)) in
    let reps = 1 + Random.State.int st (min 3 (!left / calls)) in
    pr "  for (i = 0; i < %d; i = i + 1) {\n" reps;
    (match kind with
     | `Read ->
       pr "    fd = open(%S, 0, 0);\n" (input ());
       pr "    lseek(fd, (i * %d + %d) %% 48, 0);\n" (1 + Random.State.int st 7)
         (Random.State.int st 48);
       pr "    sum = (sum * 31 + read(fd, buf, %d) + buf[0]) %% %d;\n"
         (1 + Random.State.int st 16) modulus;
       pr "    close(fd);\n"
     | `Write ->
       let text = letters st (1 + Random.State.int st 12) in
       pr "    fd = open(\"%s/o%d_%d\", 65, 420);\n" churn_dir index !j;
       pr "    sum = (sum * 5 + write(fd, %S, %d)) %% %d;\n" text (String.length text) modulus;
       pr "    close(fd);\n"
     | `Stat -> pr "    sum = (sum * 7 + stat(%S, st)) %% %d;\n" (input ()) modulus
     | `Getpid -> pr "    if (getpid() > 0) { sum = (sum * 3 + 1) %% %d; }\n" modulus
     | `Mkdir -> pr "    mkdir(\"%s/d%d_%d\", 493);\n" churn_dir index !j);
    pr "  }\n";
    left := !left - (reps * calls);
    incr j
  done;
  pr "  print_int(sum);\n  puts_str(\"\\n\");\n  return 0;\n}\n";
  Buffer.contents b

(* ----- tampering: an attacker who controls syscall state at one trap ----- *)

type tamper =
  | Call_mac_byte of int  (* flip a byte of the call MAC the r11 pointer names *)
  | String_byte of int    (* flip a byte of an authenticated-string argument *)
  | Predset_byte of int   (* flip a byte of the predecessor set (r9) *)
  | Lbmac_byte of int     (* flip a byte of the lbMAC in the policy state (r10) *)
  | Hostile_reg of int * int  (* register pick, hostile value *)

type plan = { at_trap : int; tamper : tamper; mask : int }

(* Boundary values an attacker would try first: zero, all-ones, the low
   end of the integer range, the ends of guest memory and of 32-bit space. *)
let hostile_values =
  [| 0; 1; -1; min_int; 0xffff_ffff; 0x1_0000_0000; Svm.Machine.default_mem_size;
     Svm.Machine.default_mem_size - 1 |]

(* The high end of the integer range. [Machine.in_range] computes
   [addr + len], which wraps for these, and an exception escapes
   [Kernel.run] (ROADMAP item 4, a known defect). The op stream leaves them
   out, since a benchmark op must not fail; every churn run applies them in
   [defect_probes] after timing and reports what they do. *)
let wrapping_values = [| max_int; max_int - 15 |]

(* One op in four is tampered: a deliberate choice, not a measurement, so
   that the deny path and its forensic snapshot run on a quarter of the
   ops and show in the op latency tail. *)
let tamper_share = 4

let churn_plan ~seed ~index =
  let st = rng ~seed ~salt:5 ~index in
  if Random.State.int st tamper_share <> 0 then None
  else
    let byte = Random.State.int st 1024 in
    let tamper =
      match Random.State.int st 5 with
      | 0 -> Call_mac_byte byte
      | 1 -> String_byte byte
      | 2 -> Predset_byte byte
      | 3 -> Lbmac_byte byte
      | _ ->
        let v =
          if Random.State.bool st then Random.State.bits st lor (Random.State.bits st lsl 30)
          else hostile_values.(Random.State.int st (Array.length hostile_values))
        in
        Hostile_reg (Random.State.int st 6, v)
    in
    (* every program's third trap names a literal path, so each tamper
       kind finds a trap at or after one of the first three *)
    Some { at_trap = Random.State.int st 3; tamper; mask = 1 + Random.State.int st 255 }

(* Each wrapping value in each register the checker may consume, at the
   third trap: the probes of the known defect. *)
let defect_probes =
  List.concat_map
    (fun v -> List.init 6 (fun pick -> { at_trap = 2; tamper = Hostile_reg (pick, v); mask = 1 }))
    (Array.to_list wrapping_values)

(* The deny probe a traced run ends with, on every workload: a call-MAC
   byte flipped at the third trap, the first one after [__os_init]. *)
let deny_probe = { at_trap = 2; tamper = Call_mac_byte 0; mask = 0x5a }

let tamper_name = function
  | Call_mac_byte _ -> "call_mac"
  | String_byte _ -> "string"
  | Predset_byte _ -> "predset"
  | Lbmac_byte _ -> "lbmac"
  | Hostile_reg _ -> "hostile_reg"
