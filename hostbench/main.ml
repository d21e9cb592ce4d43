(* hostbench: host-time benchmark of the authenticated-system-call stack.

   Usage: main.exe --workload steady|churn --seed N --seconds S --trace 0|1

   Prints a human-readable report, then, as the last line of stdout, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
   (whose spans are also written as Chrome trace JSON under
   .hostbench_out/). Run from the repository root. *)

open Hostbench

let usage () =
  prerr_endline "usage: main.exe --workload steady|churn --seed N --seconds S --trace 0|1";
  exit 2

let json_number v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.Harness.name = !workload) Harness.workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let r = Harness.run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let ops = r.Harness.ops @ r.Harness.probes in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun m -> not (Harness.ok m)) ops) in
  let wrong, exns =
    List.partition
      (fun m -> match m.Harness.op.Op.outcome with Op.Wrong _ -> true | _ -> false)
      (List.filter (fun m -> not (Harness.ok m)) ops)
  in
  Printf.printf "hostbench %s seed %d: %d ops, %d wrong verdicts, %d host exceptions\n" w.Harness.name
    !seed attempted (List.length wrong) (List.length exns);
  List.iteri
    (fun i m ->
      if i < 5 then
        match m.Harness.op.Op.outcome with
        | Op.Wrong s -> Printf.printf "  op %d wrong: %s\n" m.Harness.index s
        | Op.Host_exn s -> Printf.printf "  op %d host exception: %s\n" m.Harness.index s
        | Op.Pass -> ())
    (wrong @ exns);
  (match r.Harness.defects with
   | [] -> ()
   | defects ->
     let broke =
       List.filter_map
         (fun op ->
           match op.Op.outcome with Op.Pass -> None | Op.Wrong s | Op.Host_exn s -> Some s)
         defects
     in
     Printf.printf
       "known defect (ROADMAP item 4, Machine.in_range wrap): %d of %d probes with a register \
        near max_int failed%s\n"
       (List.length broke) (List.length defects)
       (match broke with s :: _ -> ", first: " ^ s | [] -> ""));
  let tally = r.Harness.tally in
  Printf.printf "telemetry reasons sum to traps on every clean kernel: %b (%d traps)\n"
    (tally.Op.unbalanced = 0) tally.Op.traps;
  let metrics, balanced =
    match r.Harness.tracer with
    | None ->
      let metrics, notes = Harness.end_to_end r in
      List.iter print_endline notes;
      (metrics, true)
    | Some t ->
      let balanced, lines = Harness.accounting r t in
      List.iter print_endline lines;
      (try Sys.mkdir ".hostbench_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".hostbench_out/%s-seed%d.trace.json" w.Harness.name !seed in
      Tracer.write_chrome t path;
      Printf.printf "spans written to %s\n" path;
      (Harness.per_layer r t, balanced)
  in
  List.iter
    (fun m -> Printf.printf "%-36s %16.4f %s\n" m.Harness.m_name m.Harness.value m.Harness.unit_)
    metrics;
  let correct = wrong = [] && tally.Op.unbalanced = 0 && balanced in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Harness.m_name
              (json_number m.Harness.value) m.Harness.unit_)
          metrics))
