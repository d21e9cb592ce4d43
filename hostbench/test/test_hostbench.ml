(* The benchmark's own tests: one seed always gives the same inputs, tamper
   plans and deterministic metrics; every tamper plan finds a trap it
   applies to; the oracles pass; the tail rule holds. *)

open Hostbench

let table6 = "../../bench/baselines/BENCH_table6.json"

let passes (op : Op.t) =
  match op.Op.outcome with Op.Pass -> () | Op.Wrong s | Op.Host_exn s -> Alcotest.fail s

(* Every generated input of a seed, as one string. *)
let inputs ~seed =
  let s = Gen.steady ~seed () in
  String.concat "\n--\n"
    ([ s.Gen.st_source ]
    @ List.map (fun (p, c) -> p ^ "=" ^ c) s.Gen.st_files
    @ List.init 8 (fun session -> Gen.steady_batch s ~seed ~session)
    @ List.map (fun (p, c) -> p ^ "=" ^ c) (Gen.churn_files ~seed)
    @ List.init 64 (fun index -> Gen.churn_program ~seed ~index))

let plans ~seed = List.init 256 (fun index -> Gen.churn_plan ~seed ~index)

let same_seed_same_inputs () =
  Alcotest.(check string) "inputs, seed 7" (inputs ~seed:7) (inputs ~seed:7);
  Alcotest.(check bool) "tamper plans, seed 7" true (plans ~seed:7 = plans ~seed:7);
  Alcotest.(check bool) "seed 8 gives other inputs" true (inputs ~seed:7 <> inputs ~seed:8);
  Alcotest.(check bool) "seed 8 gives other plans" true (plans ~seed:7 <> plans ~seed:8)

(* Every tamper plan of the first 96 ops of three seeds is applied at some
   trap. Only whether the tamper applied is checked here; the oracle's
   verdict is left to the failed-op count. *)
let tampers_apply () =
  List.iter
    (fun seed ->
      let inst = Churn.setup ~seed ~policy:false ~first:0 (Op.tally ()) in
      for index = 0 to 95 do
        match Gen.churn_plan ~seed ~index with
        | None -> ()
        | Some plan ->
          let op = inst.Op.run_op ~tracer:None index in
          if op.Op.deny_want = None then
            Alcotest.failf "seed %d op %d: tamper %s found no trap" seed index
              (Gen.tamper_name plan.Gen.tamper);
          (match op.Op.outcome with Op.Wrong s -> Alcotest.fail s | Op.Pass | Op.Host_exn _ -> ())
      done)
    [ 1; 2; 3 ]

let workload name = List.find (fun w -> w.Harness.name = name) Harness.workloads

(* model_* and ok_pct of two runs of one seed are identical. *)
let deterministic_metrics name ~ops () =
  let pick () =
    let r = Harness.run ~ops (workload name) ~seed:5 ~seconds:1 ~trace:false in
    List.filter_map
      (fun m ->
        match m.Harness.m_name with
        | "model_slowdown_x" | "model_cycles_per_call" | "ok_pct" ->
          Some (m.Harness.m_name, m.Harness.value)
        | _ -> None)
      (fst (Harness.end_to_end r))
  in
  let a = pick () and b = pick () in
  Alcotest.(check int) "three deterministic metrics" 3 (List.length a);
  Alcotest.(check (list (pair string (float 0.)))) "two runs on one seed" a b

(* The tail percentile leaves at least ten samples beyond its nearest rank,
   is the highest percentile that does, and is never below the median. *)
let tail_rule () =
  for n = 20 to 2000 do
    let p = Samples.tail_pct n in
    let beyond q = n - int_of_float (ceil (q *. float_of_int n /. 100.)) in
    if beyond p < 10 then Alcotest.failf "n=%d: p%g leaves %d samples beyond" n p (beyond p);
    if p < 50. then Alcotest.failf "n=%d: p%g below the median" n p;
    if p > 50. && beyond (p +. 1.) >= 10 then Alcotest.failf "n=%d: p%g is not the highest" n p
  done;
  let st = Random.State.make [| 3 |] in
  for n = 1 to 300 do
    let s = Samples.of_list (List.init n (fun _ -> Random.State.int st 1000)) in
    let _, tail, count = Samples.tail s in
    Alcotest.(check int) "sample count" n count;
    if tail < Samples.p50 s then Alcotest.failf "n=%d: tail below the median" n
  done

(* A short traced run balances its accounting: self times add up, and the
   span counts agree with the traps the kernel counted. *)
let traced_balances name ~ops () =
  let r = Harness.run ~ops (workload name) ~seed:4 ~seconds:1 ~trace:true in
  let balanced, lines = Harness.accounting r (Option.get r.Harness.tracer) in
  if not balanced then Alcotest.fail (String.concat "\n" lines)

(* Every steady session passes its oracle: exit 0, the same stdout as the
   unprotected twin, and the checksum computed from the generated files. *)
let steady_oracle () =
  let inst = Steady.setup ~seed:3 ~policy:false ~first:0 (Op.tally ()) in
  for i = 0 to 2 do
    passes (inst.Op.run_op ~tracer:None i)
  done

(* program -> (original_cycles, authenticated_precomp_cycles) *)
let table6_rows () =
  let text = In_channel.with_open_bin table6 In_channel.input_all in
  let open Asc_obs.Json in
  let rows =
    match parse text with
    | Ok doc -> Option.bind (member "rows" doc) to_list |> Option.value ~default:[]
    | Error e -> Alcotest.fail (table6 ^ ": " ^ e)
  in
  List.map
    (fun row ->
      let field name = Option.bind (member name row) in
      match
        ( field "program" to_str,
          field "original_cycles" to_int,
          field "authenticated_precomp_cycles" to_int )
      with
      | Some p, Some o, Some a -> (p, (o, a))
      | _ -> Alcotest.fail (table6 ^ ": malformed row"))
    rows

(* The benchmark runs the paper's deployment configuration: each Table 5
   program, installed and run through Sut under the deployment monitor,
   and its PLTO-baseline twin under none, take exactly the modeled cycles
   of its row in the committed Table 6 baseline, and print the same. *)
let deployment_matches_table6 () =
  let rows = table6_rows () in
  List.iter
    (fun (w : Workloads.Registry.t) ->
      let name = w.Workloads.Registry.name and stdin = w.Workloads.Registry.stdin in
      let img = Workloads.Registry.compile ~personality:Sut.personality w in
      let inst = Sut.install ~program:name img in
      let run ~monitor image =
        Sut.run ~stdin (Sut.kernel ~monitor w.Workloads.Registry.setup) ~program:name image
      in
      let enf = run ~monitor:true inst.Sut.image and pl = run ~monitor:false (Sut.plto_baseline img) in
      let op = Op.create () in
      Op.check_benign op ~what:name ~enforced:enf ~plain:pl ();
      passes op;
      match List.assoc_opt name rows with
      | None -> Alcotest.failf "%s: no Table 6 row" name
      | Some (orig, auth) ->
        Alcotest.(check (pair int int)) (name ^ " plain/enforced cycles") (orig, auth)
          (pl.Sut.cycles, enf.Sut.cycles))
    (Workloads.Registry.table5 ~scale:1)

(* The call counts the generators are sized by are the repository's own
   measurements. *)
let sizes_match_baselines () =
  let open Asc_obs.Json in
  let doc name =
    match parse (In_channel.with_open_bin ("../../bench/baselines/" ^ name) In_channel.input_all) with
    | Ok d -> d
    | Error e -> Alcotest.fail (name ^ ": " ^ e)
  in
  let andrew = doc "BENCH_andrew.json" in
  let field d n = Option.get (Option.bind (member n d) to_int) in
  Alcotest.(check (pair int int)) "Andrew tasks and syscalls" Gen.andrew_tasks_syscalls
    (field andrew "tasks", field andrew "syscalls")

let () =
  Alcotest.run "hostbench"
    [ ( "determinism",
        [ Alcotest.test_case "same seed, same inputs and plans" `Quick same_seed_same_inputs;
          Alcotest.test_case "steady metrics repeat" `Quick (deterministic_metrics "steady" ~ops:8);
          Alcotest.test_case "churn metrics repeat" `Quick (deterministic_metrics "churn" ~ops:64) ] );
      ( "oracle",
        [ Alcotest.test_case "every tamper applies" `Quick tampers_apply;
          Alcotest.test_case "steady sessions pass" `Quick steady_oracle;
          Alcotest.test_case "steady traced run balances" `Quick (traced_balances "steady" ~ops:8);
          Alcotest.test_case "churn traced run balances" `Quick (traced_balances "churn" ~ops:64);
          Alcotest.test_case "deployment matches Table 6" `Slow deployment_matches_table6;
          Alcotest.test_case "generator sizes match the baselines" `Quick sizes_match_baselines ] );
      ("samples", [ Alcotest.test_case "tail rule" `Quick tail_rule ]) ]
