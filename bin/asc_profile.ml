(* Cycle-exact profiler: run a program on the simulated kernel with the
   shadow-call-stack profiler attached and export flamegraph-ready data.

   By default the program is installed (authenticated system calls) and run
   under the in-kernel checker, so kernel-side verification work appears in
   the profile as synthetic <kernel:...> frames under each syscall-site
   frame. Every run self-checks that the profiler accounted for exactly the
   cycles the machine retired and that the folded output round-trips. *)

open Cmdliner
open Oskernel
module Profile = Asc_obs.Profile
module Json = Asc_obs.Json

(* addr -> name resolution: the image's symbol table first, then PLTO CFG
   function entries (call targets) for code without symbols. *)
let build_symbolizer (img : Svm.Obj_file.t) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Svm.Obj_file.symbol) ->
      if not (Hashtbl.mem tbl s.sym_addr) then Hashtbl.replace tbl s.sym_addr s.sym_name)
    img.symbols;
  (match Plto.Disasm.disassemble img with
   | Error _ -> ()
   | Ok ir ->
     List.iter
       (fun bid ->
         match (Plto.Ir.find_block ir bid).Plto.Ir.orig_addr with
         | Some addr when not (Hashtbl.mem tbl addr) ->
           Hashtbl.replace tbl addr (Printf.sprintf "fn_0x%x" addr)
         | Some _ | None -> ())
       (Plto.Cfg.function_entries ir));
  let entries =
    Hashtbl.fold (fun a n acc -> (a, n) :: acc) tbl []
    |> List.sort compare |> Array.of_list
  in
  fun (f : Profile.frame) ->
    match f with
    | Profile.Label s -> s
    | Profile.Pc a ->
      (match Hashtbl.find_opt tbl a with
       | Some n -> n
       | None ->
         (* nearest entry at or below the address *)
         let lo = ref 0 and hi = ref (Array.length entries - 1) and best = ref None in
         while !lo <= !hi do
           let mid = (!lo + !hi) / 2 in
           let (addr, _) = entries.(mid) in
           if addr <= a then begin
             best := Some entries.(mid);
             lo := mid + 1
           end
           else hi := mid - 1
         done;
         (match !best with
          | Some (addr, name) -> Printf.sprintf "%s+0x%x" name (a - addr)
          | None -> Printf.sprintf "0x%x" a))

let is_site_frame name =
  match String.index_opt name '@' with
  | Some i ->
    String.length name >= i + 6 && String.sub name i 6 = "@site_"
  | None -> false

(* With --alloc the tables are keyed by sampled minor words instead of
   cycles: same frames, same shape, second resource. *)
let self_of ~alloc (r : Profile.row) = if alloc then r.r_alloc else r.r_self
let total_of ~alloc (r : Profile.row) = if alloc then r.r_total_alloc else r.r_total

(* Per-call-site heat: a site frame's children are the checker's
   <kernel:step> frames, so subtree-minus-self is verification cost and
   self is trap + dispatch + syscall work. *)
let site_rows ~alloc rows =
  List.filter (fun (r : Profile.row) -> is_site_frame r.r_name) rows
  |> List.map (fun (r : Profile.row) -> (r, total_of ~alloc r - self_of ~alloc r))
  |> List.sort (fun (a, va) (b, vb) ->
         match compare vb va with
         | 0 -> compare (total_of ~alloc b) (total_of ~alloc a)
         | c -> c)

let render_top ~alloc buf n rows =
  let unit = if alloc then "words" else "cycles" in
  Printf.bprintf buf "%-44s %8s %12s %12s\n" "frame" "calls" ("self " ^ unit)
    ("total " ^ unit);
  List.iteri
    (fun i (r : Profile.row) ->
      if i < n then
        Printf.bprintf buf "%-44s %8d %12d %12d\n" r.r_name r.r_calls (self_of ~alloc r)
          (total_of ~alloc r))
    rows

let render_sites ~alloc buf rows =
  let unit = if alloc then " (words)" else "" in
  Printf.bprintf buf "%-44s %8s %12s %12s %12s\n" ("site" ^ unit) "calls" "verify" "kernel"
    "total";
  List.iter
    (fun ((r : Profile.row), verify) ->
      Printf.bprintf buf "%-44s %8d %12d %12d %12d\n" r.r_name r.r_calls verify
        (self_of ~alloc r) (total_of ~alloc r))
    rows

let stop_json = function
  | Svm.Machine.Halted code -> Json.Obj [ ("kind", Json.Str "halted"); ("code", Json.Int code) ]
  | Svm.Machine.Killed reason ->
    Json.Obj [ ("kind", Json.Str "killed"); ("reason", Json.Str reason) ]
  | Svm.Machine.Faulted (_, pc) ->
    Json.Obj [ ("kind", Json.Str "faulted"); ("pc", Json.Int pc) ]
  | Svm.Machine.Cycle_limit -> Json.Obj [ ("kind", Json.Str "cycle_limit") ]

let run input key_hex os no_enforce stdin_text folded top_n sites alloc json output =
  let ( let* ) = Result.bind in
  let result =
    let* personality = Common.personality_of_string os in
    let* img, w = Common.load_program ~personality input in
    let* key = Common.key_of_hex key_hex in
    let program = Filename.basename input in
    let* run_img =
      if no_enforce then Ok img
      else
        match Asc_core.Installer.install ~key ~personality ~program img with
        | Ok inst -> Ok inst.Asc_core.Installer.image
        | Error e -> Error (Printf.sprintf "install failed: %s" e)
    in
    let kernel = Kernel.create ~personality () in
    (match w with Some w -> w.Workloads.Registry.setup kernel | None -> ());
    (* enforced runs profile the checker the other tools run *)
    if not no_enforce then
      Kernel.set_monitor kernel (Some (Asc_core.Checker.deployment ~kernel ~key ()));
    let stdin =
      match (stdin_text, w) with
      | Some s, _ -> s
      | None, Some w -> w.Workloads.Registry.stdin
      | None, None -> ""
    in
    let* proc =
      try Ok (Kernel.spawn kernel ~stdin ~program run_img)
      with Invalid_argument e -> Error e
    in
    let prof = Profile.create () in
    (* with --alloc, arm minor-words sampling, then read the machine-scope
       base mark immediately after: [track_alloc] and [minor_words] both
       allocate nothing, so the profiler's mark and [alloc0] coincide *)
    Svm.Machine.attach_profile ~alloc proc.Process.machine prof;
    let alloc0 = Profile.minor_words () in
    let stop = Kernel.run kernel proc ~max_cycles:2_000_000_000 in
    (* flush pending words onto the final stack, then close the scope *)
    Profile.sample_alloc prof;
    let alloc1 = Profile.minor_words () in
    let m = proc.Process.machine in
    let symbolize = build_symbolizer run_img in
    (* --- self checks --- *)
    let* () =
      if Profile.total_cycles prof <> m.Svm.Machine.cycles then
        Error
          (Printf.sprintf "profiler accounted %d cycles but the machine retired %d"
             (Profile.total_cycles prof) m.Svm.Machine.cycles)
      else Ok ()
    in
    let stacks = Profile.folded ~symbolize prof in
    let folded_sum = List.fold_left (fun acc (_, c) -> acc + c) 0 stacks in
    let* () =
      if folded_sum <> Profile.total_cycles prof then
        Error
          (Printf.sprintf "folded stacks sum to %d, expected %d" folded_sum
             (Profile.total_cycles prof))
      else Ok ()
    in
    let folded_text = Profile.folded_string ~symbolize prof in
    let* () =
      match Profile.parse_folded folded_text with
      | Ok reparsed when reparsed = stacks -> Ok ()
      | Ok _ -> Error "folded output did not round-trip"
      | Error e -> Error (Printf.sprintf "folded output did not parse: %s" e)
    in
    let* () =
      if no_enforce || Kernel.syscall_count kernel = 0 then Ok ()
      else if
        List.exists
          (fun (stack, _) -> List.mem "<kernel:call_mac>" stack)
          stacks
      then Ok ()
      else Error "enforced run produced no <kernel:call_mac> frames"
    in
    (* --alloc conservation self-check: every charged word landed on
       exactly one frame, and the charges telescope to the machine-scope
       Gc.minor_words delta between arming and the final flush *)
    let* () =
      if not alloc then Ok ()
      else begin
        let charged = Profile.total_alloc_words prof in
        let machine_delta = alloc1 - alloc0 in
        if charged <> machine_delta then
          Error
            (Printf.sprintf
               "profiler charged %d minor words but the machine scope allocated %d" charged
               machine_delta)
        else
          let astacks = Profile.folded_alloc ~symbolize prof in
          let asum = List.fold_left (fun acc (_, w) -> acc + w) 0 astacks in
          if asum <> charged then
            Error (Printf.sprintf "alloc folded stacks sum to %d, expected %d" asum charged)
          else Ok ()
      end
    in
    let rows = Profile.top ~symbolize prof in
    let rows =
      if alloc then
        List.sort
          (fun (a : Profile.row) (b : Profile.row) ->
            match compare b.r_alloc a.r_alloc with
            | 0 -> compare a.r_name b.r_name
            | c -> c)
          rows
      else rows
    in
    let buf = Buffer.create 4096 in
    let default = not (folded || top_n > 0 || sites || json) in
    if folded then
      Buffer.add_string buf
        (if alloc then Profile.folded_alloc_string ~symbolize prof else folded_text);
    if top_n > 0 || default then render_top ~alloc buf (if top_n > 0 then top_n else 20) rows;
    if sites || default then begin
      if default then Buffer.add_char buf '\n';
      render_sites ~alloc buf (site_rows ~alloc rows)
    end;
    if json then begin
      let site_list =
        List.map
          (fun ((r : Profile.row), verify) ->
            Json.Obj
              [ ("site", Json.Str r.r_name);
                ("calls", Json.Int r.r_calls);
                ("verify_cycles", Json.Int verify);
                ("kernel_cycles", Json.Int r.r_self);
                ("total_cycles", Json.Int r.r_total);
                ("verify_words", Json.Int (r.r_total_alloc - r.r_alloc));
                ("kernel_words", Json.Int r.r_alloc);
                ("total_words", Json.Int r.r_total_alloc) ])
          (site_rows ~alloc:false rows)
      in
      Json.to_buffer buf
        (Json.Obj
           [ ("program", Json.Str program);
             ("stop", stop_json stop);
             ("cycles", Json.Int m.Svm.Machine.cycles);
             ("instructions", Json.Int m.Svm.Machine.instrs);
             ("syscalls", Json.Int (Kernel.syscall_count kernel));
             ("profile", Profile.to_json ~symbolize prof);
             ("sites", Json.List site_list) ]);
      Buffer.add_char buf '\n'
    end;
    (match output with
     | Some path -> Common.write_file path (Buffer.contents buf)
     | None -> print_string (Buffer.contents buf));
    if alloc then
      Format.eprintf "[%d cycles, %d instructions, %d syscalls, %d minor words]@."
        m.Svm.Machine.cycles m.Svm.Machine.instrs
        (Kernel.syscall_count kernel)
        (Profile.total_alloc_words prof)
    else
      Format.eprintf "[%d cycles, %d instructions, %d syscalls]@." m.Svm.Machine.cycles
        m.Svm.Machine.instrs
        (Kernel.syscall_count kernel);
    (match stop with
     | Svm.Machine.Halted code -> Format.eprintf "[exit %d]@." code
     | Svm.Machine.Killed reason -> Format.eprintf "[killed: %s]@." reason
     | Svm.Machine.Faulted (_, pc) -> Format.eprintf "[fault at 0x%x]@." pc
     | Svm.Machine.Cycle_limit -> Format.eprintf "[cycle limit]@.");
    Ok 0
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-profile: %s@." e;
    1

let input_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
         ~doc:"SEF binary, MiniC source (.mc), or workload:NAME.")

let key_arg =
  Arg.(value & opt string "000102030405060708090a0b0c0d0e0f"
       & info [ "k"; "key" ] ~docv:"HEX" ~doc:"128-bit MAC key.")

let os_arg =
  Arg.(value & opt string "linux" & info [ "os" ] ~docv:"OS" ~doc:"linux or openbsd.")

let no_enforce_arg =
  Arg.(value & flag & info [ "no-enforce" ]
         ~doc:"Profile the original binary without installing authenticated system \
               calls (no <kernel:...> verification frames).")

let stdin_arg =
  Arg.(value & opt (some string) None & info [ "stdin" ] ~docv:"TEXT"
         ~doc:"Text supplied on the program's standard input.")

let folded_arg =
  Arg.(value & flag & info [ "folded" ]
         ~doc:"Emit folded stacks (flamegraph.pl-compatible): one \
               'frame;frame;frame cycles' line per distinct stack.")

let top_arg =
  Arg.(value & opt int 0 & info [ "top" ] ~docv:"N"
         ~doc:"Emit the top-N frames by self cycles (calls/self/total table).")

let sites_arg =
  Arg.(value & flag & info [ "sites" ]
         ~doc:"Emit per-call-site syscall heat, ranked by verification cycles.")

let alloc_arg =
  Arg.(value & flag & info [ "alloc" ]
         ~doc:"Profile host minor-heap allocation alongside cycles: arm the \
               profiler's Gc.minor_words sampling, key --folded/--top/--sites \
               by words, and self-check that the charged words equal the \
               machine-scope minor-words delta (conservation).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the whole profile as JSON.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write output to FILE instead of standard output.")

let cmd =
  let doc =
    "cycle-exact profile of a program under the simulated kernel (invoke as asc-profile \
     --diff A.json B.json to diff two exported profiles instead)"
  in
  Cmd.v
    (Cmd.info "asc-profile" ~doc)
    Term.(
      const run $ input_arg $ key_arg $ os_arg $ no_enforce_arg $ stdin_arg $ folded_arg
      $ top_arg $ sites_arg $ alloc_arg $ json_arg $ output_arg)

(* --- differential mode -------------------------------------------------

   asc_profile --diff A.json B.json [--noise N] [--top N] [--folded]

   A and B are profile exports (either `asc_profile --json` documents or
   the bare "profile" object inside one). Aligns the folded stacks of
   both resources (cycles and minor words), applies the noise floor, and
   prints the blame table (or folded delta lines with --folded).

   Exit status: 0 when no delta survives the noise floor on either
   resource, 1 when something moved, 2 on unreadable input — so a
   self-diff gates in CI and a regression diff reads as a failure. *)

let run_diff args =
  let noise = ref 0 and top = ref 10 and folded = ref false and files = ref [] in
  let rec parse = function
    | [] -> Ok ()
    | "--noise" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 0 ->
          noise := n;
          parse rest
        | _ -> Error "--noise wants a non-negative integer")
    | "--top" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
          top := n;
          parse rest
        | _ -> Error "--top wants a positive integer")
    | "--folded" :: rest ->
      folded := true;
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  let ( let* ) = Result.bind in
  let load path =
    let* text =
      try Ok (Common.read_file path) with Sys_error e -> Error e
    in
    let* j = Result.map_error (fun e -> path ^ ": " ^ e) (Json.parse text) in
    Result.map_error (fun e -> path ^ ": " ^ e) (Asc_obs.Diffprof.of_json j)
  in
  let result =
    let* () = parse args in
    let* a, b =
      match List.rev !files with
      | [ a; b ] -> Ok (a, b)
      | _ -> Error "--diff wants exactly two profile JSON files"
    in
    let* base = load a in
    let* actual = load b in
    let cycles, words =
      Asc_obs.Diffprof.diff_sides ~noise:!noise ~base ~actual ()
    in
    let print rp =
      if !folded then print_string (Asc_obs.Diffprof.folded_diff rp)
      else print_string (Asc_obs.Diffprof.blame_table ~top:!top rp)
    in
    print cycles;
    print words;
    if Asc_obs.Diffprof.is_empty cycles && Asc_obs.Diffprof.is_empty words then begin
      Printf.printf "diff: no deltas above the noise floor (%d) between %s and %s\n" !noise a b;
      Ok 0
    end
    else Ok 1
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-profile --diff: %s@." e;
    2

let () =
  match Array.to_list Sys.argv with
  | _ :: "--diff" :: rest -> exit (run_diff rest)
  | _ -> exit (Cmd.eval' cmd)
