(* strace(1) analogue for the simulated kernel: print every system call a
   program makes — the tool used to "verify by hand using a system call
   tracer on actual runs" (§4.2), and the data source for Systrace-style
   training. *)

open Cmdliner
open Oskernel

let sem_name t =
  match t.Kernel.t_sem with
  | Some s -> Syscall.name s
  | None -> Printf.sprintf "syscall#%d" t.Kernel.t_number

(* Per-syscall counts plus dispatch-cycle quantiles. Durations come from
   the kernel's span collector (cycle-stamped, so deterministic); the
   quantiles use the same log-linear estimator as the telemetry plane, so
   each estimate is within its containing bucket's width of exact. *)
let print_summary kernel trace =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let name = sem_name t in
      Hashtbl.replace counts name (1 + try Hashtbl.find counts name with Not_found -> 0))
    trace;
  let buckets = Asc_obs.Metrics.log_linear_buckets ~lo:10 ~hi:1_000_000 in
  let reg = Asc_obs.Metrics.create () in
  let hists = Hashtbl.create 16 in
  List.iter
    (fun (ev : Asc_obs.Trace.event) ->
      let h =
        match Hashtbl.find_opt hists ev.Asc_obs.Trace.ev_name with
        | Some h -> h
        | None ->
          let h = Asc_obs.Metrics.histogram ~buckets reg ev.Asc_obs.Trace.ev_name in
          Hashtbl.add hists ev.Asc_obs.Trace.ev_name h;
          h
      in
      Asc_obs.Metrics.observe h ev.Asc_obs.Trace.ev_dur)
    (Asc_obs.Trace.events (Kernel.spans kernel));
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] in
  Format.printf "%6s %8s %8s %8s %8s  %s@." "calls" "mean" "p50" "p95" "p99" "syscall";
  List.iter
    (fun (name, n) ->
      match Hashtbl.find_opt hists name with
      | Some h ->
        let snap = Asc_obs.Metrics.histogram_value h in
        let q p = Asc_obs.Metrics.quantile snap p in
        let mean =
          if snap.Asc_obs.Metrics.h_count = 0 then 0
          else snap.Asc_obs.Metrics.h_sum / snap.Asc_obs.Metrics.h_count
        in
        Format.printf "%6d %8d %8d %8d %8d  %s@." n mean (q 0.50) (q 0.95) (q 0.99) name
      | None -> Format.printf "%6d %8s %8s %8s %8s  %s@." n "-" "-" "-" "-" name)
    (List.sort (fun (_, a) (_, b) -> compare b a) rows);
  Format.printf "%6d  total (cycles per dispatched call, quantiles estimated)@."
    (List.length trace);
  (* denied calls never reach the trace ring (the monitor kills the process
     before dispatch), so their counts come from the telemetry plane's
     reason codes: one [Deny step] code per denied call, keyed by the
     failing verification step *)
  let agg = Asc_obs.Telemetry.aggregate (Kernel.telemetry kernel) in
  let deny_idx = Asc_obs.Telemetry.reason_index (Asc_obs.Telemetry.Deny "") in
  if agg.Asc_obs.Telemetry.t_reasons.(deny_idx) > 0 then begin
    Format.printf "@.%6s  %s@." "denies" "reason (telemetry reason codes)";
    List.iter
      (fun (step, n) -> Format.printf "%6d  %s@." n step)
      (List.sort
         (fun (_, a) (_, b) -> compare b a)
         agg.Asc_obs.Telemetry.t_deny_steps);
    Format.printf "%6d  total denied@." agg.Asc_obs.Telemetry.t_reasons.(deny_idx)
  end

let print_log trace =
  List.iter
    (fun t ->
      Format.printf "%s(%s) @@ 0x%x = %d@." (sem_name t)
        (String.concat ", " (Array.to_list (Array.map string_of_int t.Kernel.t_args)))
        t.Kernel.t_site t.Kernel.t_result)
    trace

let print_json kernel trace =
  let open Asc_obs.Json in
  let entry t =
    Obj
      [ ("name", Str (sem_name t));
        ("number", Int t.Kernel.t_number);
        ("site", Int t.Kernel.t_site);
        ("args", List (Array.to_list (Array.map (fun a -> Int a) t.Kernel.t_args)));
        ("result", Int t.Kernel.t_result) ]
  in
  print_endline
    (to_string
       (Obj
          [ ("trace", List (List.map entry trace));
            ("syscalls", Int (Kernel.syscall_count kernel));
            ("denied", Int (Kernel.denied_count kernel));
            ("audit", List (List.map Kernel.audit_to_json (Kernel.audit_log kernel))) ]))

let run input os stdin_text summary format enforce key_hex =
  let ( let* ) = Result.bind in
  let result =
    let* personality = Common.personality_of_string os in
    let* format =
      match (format, summary) with
      | ("log" | "summary" | "json" | "chrome" | "audit"), true -> Ok "summary"
      | (("log" | "summary" | "json" | "chrome" | "audit") as f), false -> Ok f
      | f, _ ->
        Error
          (Printf.sprintf "unknown format %S (expected log, summary, json, chrome or audit)" f)
    in
    let* img, w = Common.load_program ~personality input in
    let kernel = Kernel.create ~personality () in
    (match w with Some w -> w.Workloads.Registry.setup kernel | None -> ());
    (* --enforce: trace under the deployment checker so the summary's
       deny-reason counts (telemetry reason codes) are live *)
    let* img =
      if not enforce then Ok img
      else
        let* key = Common.key_of_hex key_hex in
        Kernel.set_monitor kernel (Some (Asc_core.Checker.deployment ~kernel ~key ()));
        Common.install_if_compiled ~key ~personality ~input ~workload:w img
    in
    kernel.Kernel.tracing <- true;
    let stdin =
      match (stdin_text, w) with
      | Some s, _ -> s
      | None, Some w -> w.Workloads.Registry.stdin
      | None, None -> ""
    in
    let proc = Kernel.spawn kernel ~stdin ~program:(Filename.basename input) img in
    let stop = Kernel.run kernel proc ~max_cycles:2_000_000_000 in
    let trace = Kernel.trace kernel in
    (match format with
     | "summary" -> print_summary kernel trace
     | "json" -> print_json kernel trace
     | "chrome" -> print_endline (Asc_obs.Trace.chrome_string (Kernel.spans kernel))
     | "audit" ->
       (* one audit entry per line, in the same JSON schema the
          tamper-evident chain records (asc-run --audit-out / asc-audit) *)
       List.iter
         (fun e -> print_endline (Asc_obs.Json.to_string (Kernel.audit_to_json e)))
         (Kernel.audit_log kernel)
     | _ -> print_log trace);
    (match stop with
     | Svm.Machine.Halted code ->
       Format.eprintf "[exit %d]@." code;
       Ok 0
     | Svm.Machine.Killed reason ->
       Format.eprintf "[killed: %s]@." reason;
       Ok 137
     | Svm.Machine.Faulted (_, pc) ->
       Format.eprintf "[fault at 0x%x]@." pc;
       Ok 139
     | Svm.Machine.Cycle_limit ->
       Format.eprintf "[cycle limit]@.";
       Ok 124)
  in
  match result with
  | Ok code -> code
  | Error e ->
    Format.eprintf "asc-trace: %s@." e;
    1

let input_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
         ~doc:"SEF binary, MiniC source (.mc), or workload:NAME.")

let os_arg = Arg.(value & opt string "linux" & info [ "os" ] ~docv:"OS" ~doc:"linux or openbsd.")

let stdin_arg =
  Arg.(value & opt (some string) None & info [ "stdin" ] ~docv:"TEXT"
         ~doc:"Text supplied on standard input.")

let summary_arg =
  Arg.(value & flag & info [ "c"; "summary" ] ~doc:"Print per-syscall counts instead of a log.")

let enforce_arg =
  Arg.(value & flag & info [ "e"; "enforce" ]
         ~doc:"Trace under the deployment authenticated-system-call checker (compiled \
               inputs are MAC-installed first); $(b,--format summary) then reports deny \
               counts by telemetry reason code.")

let key_arg =
  Arg.(value & opt string "000102030405060708090a0b0c0d0e0f"
       & info [ "k"; "key" ] ~docv:"HEX" ~doc:"128-bit MAC key used with $(b,--enforce).")

let format_arg =
  Arg.(value & opt string "log" & info [ "format" ] ~docv:"FORMAT"
         ~doc:"Output format: $(b,log) (one line per call), $(b,summary) (per-syscall counts), \
               $(b,json) (machine-readable trace + audit log), $(b,chrome) (trace-event JSON \
               of the kernel's per-syscall spans, loadable in chrome://tracing or Perfetto), \
               or $(b,audit) (one audit entry per line, JSONL).")

let cmd =
  let doc = "trace the system calls of a program on the simulated kernel" in
  Cmd.v (Cmd.info "asc-trace" ~doc)
    Term.(
      const run $ input_arg $ os_arg $ stdin_arg $ summary_arg $ format_arg $ enforce_arg
      $ key_arg)

let () = exit (Cmd.eval' cmd)
