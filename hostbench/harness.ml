(* The measurement loop and the metrics it reports. Every host time is the
   raw CPU time of the benchmark's thread on the host it runs on; nothing is
   scaled to a reference machine. *)

type workload = {
  name : string;
  setup : seed:int -> policy:bool -> first:int -> Op.tally -> Op.instance;
      (* [first]: the op whose program set-up compiles and installs *)
  warmup : int;         (* ops run after set-up, before timing starts *)
  model_ops : int;      (* the fixed op window the deterministic counts cover *)
  resetup_every : int;  (* an untraced run times a set-up again every this many ops *)
  defect_probes : Gen.plan list;  (* tampers of a known defect, run after timing *)
}

let workloads =
  [ { name = "steady"; setup = Steady.setup; warmup = 3; model_ops = 64; resetup_every = 16;
      defect_probes = [] };
    { name = "churn"; setup = Churn.setup; warmup = 10; model_ops = 1024; resetup_every = 8;
      defect_probes = Gen.defect_probes } ]

(* An untraced run takes at least this many set-up samples besides the
   first, so the setup_s median is over 100 or more. *)
let min_setups = 100

type measured = { index : int; traced : bool; op : Op.t }

(* A traced run ends with this many deny probes: ops of the workload
   tampered with [Gen.deny_probe], traced, so the deny path is timed on
   every workload. Of the metrics they feed only the span-based ones. *)
let deny_probes = 21

type run = {
  workload : workload;
  ops : measured list;  (* in order *)
  probes : measured list;  (* the traced run's deny probes *)
  defects : Op.t list;  (* the known-defect probes; not ops of the run *)
  setup_s : float list;
  installs : Sut.install_stats list;
  tally : Op.tally;
  tracer : Tracer.t option;
}

(* Set up, warm up, then run ops for [seconds] of wall-clock time and for
   at least the model window and [min_setups] set-up samples, or for [ops]
   ops when given. An untraced run also times a fresh set-up every
   [resetup_every] ops and throws it away, so the set-up samples, like the
   op samples, are spread over the whole run and see the same phases of a
   busy host. The set-up taken before op [n] starts its stream at op [n]'s
   program, so on churn the samples cover many first programs. With
   [trace], odd ops are traced and even ops are not, so the traced and
   untraced halves see the same conditions. *)
let run ?ops w ~seed ~seconds ~trace =
  let tally = Op.tally () in
  let setup_s = ref [] in
  let setup first =
    let t0 = Sut.cpu_ns () in
    let inst = w.setup ~seed ~policy:trace ~first tally in
    setup_s := (float_of_int (Sut.cpu_ns () - t0) /. 1e9) :: !setup_s;
    inst
  in
  Gc.compact ();
  let inst = setup 0 in
  for i = 0 to w.warmup - 1 do
    ignore (inst.Op.run_op ~tracer:None i)
  done;
  inst.Op.installs := [];
  let tracer = if trace then Some (Tracer.create ()) else None in
  inst.Op.start ();
  let stop = Tracer.now_ns () + (seconds * 1_000_000_000) in
  let finished n =
    match ops with
    | Some k -> n >= k
    | None ->
      n >= w.model_ops && n >= min_setups * w.resetup_every && Tracer.now_ns () >= stop
  in
  let rec loop index acc =
    let n = index - w.warmup in
    if finished n then List.rev acc
    else begin
      if (not trace) && n mod w.resetup_every = w.resetup_every - 1 then ignore (setup index);
      let traced = trace && n land 1 = 1 in
      let op = inst.Op.run_op ~tracer:(if traced then tracer else None) index in
      loop (index + 1) ({ index; traced; op } :: acc)
    end
  in
  let ops = loop w.warmup [] in
  inst.Op.finish ();
  let installs = !(inst.Op.installs) in
  let probes =
    match tracer with
    | None -> []
    | Some _ ->
      let first = w.warmup + List.length ops in
      List.init deny_probes (fun i ->
          let index = first + i in
          { index; traced = true; op = inst.Op.run_op ~tracer ~plan:Gen.deny_probe index })
  in
  (* The known-defect probes run on an instance of their own, so what they
     break touches neither the run's kernels nor its tally. *)
  let defects =
    match w.defect_probes with
    | [] -> []
    | plans ->
      let first = w.warmup + List.length ops + deny_probes in
      let inst = w.setup ~seed ~policy:false ~first (Op.tally ()) in
      List.mapi (fun i plan -> inst.Op.run_op ~tracer:None ~plan (first + i)) plans
  in
  { workload = w; ops; probes; defects; setup_s = !setup_s; installs; tally; tracer }

(* ----- end-to-end metrics ----- *)

let ok (m : measured) = match m.op.Op.outcome with Op.Pass -> true | _ -> false
let timed (m : measured) = match m.op.Op.outcome with Op.Host_exn _ -> false | _ -> true
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let median_of f ops = Samples.fmedian (List.map f ops)

(* [per_s f r]: [f] per second of enforced Kernel.run CPU time, summed
   over the ops that ran to the end. *)
let per_s f r =
  let ops = List.filter timed r.ops in
  1e9 *. ratio (sum (fun m -> f m.op) ops) (sum (fun m -> m.op.Op.enf_ns) ops)

let calls_per_s = per_s (fun op -> op.Op.calls)

(* ns samples; their median in ms *)
let samples_of f l = Samples.of_list (List.filter_map f l)
let ms_p50 s = float_of_int (Samples.p50 s) /. 1e6

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

(* Ops that ran to the end (no host exception) are the latency samples. *)
let op_latencies r = samples_of (fun m -> if timed m then Some m.op.Op.op_ns else None) r.ops

let end_to_end r =
  let model =
    List.filter
      (fun m -> m.index < r.workload.warmup + r.workload.model_ops && m.op.Op.benign && ok m)
      r.ops
  in
  let ops = op_latencies r in
  let tail_p, tail, n = Samples.tail ops in
  let installs = samples_of (fun i -> Some i.Sut.install_ns) r.installs in
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  let notes =
    [ Printf.sprintf "op_ms_p50 over %d ops; op_ms_tail is p%g of %d ops; %d calls (%.1f per op)" n
        tail_p n (sum (fun m -> m.op.Op.calls) r.ops)
        (ratio (sum (fun m -> m.op.Op.calls) r.ops) (List.length r.ops));
      Printf.sprintf "install_ms_p50 over %d installs; setup_s median of %d set-ups"
        (Samples.length installs) (List.length r.setup_s);
      Printf.sprintf "model_* cover ops %d..%d (%d benign)" r.workload.warmup
        (r.workload.warmup + r.workload.model_ops - 1) (List.length model) ]
  in
  ( [ metric "calls_per_s" "1/s" (calls_per_s r);
      metric "sim_mips" "Minstr/s" (per_s (fun op -> op.Op.instrs) r /. 1e6);
      metric "op_ms_p50" "ms" (ms_p50 ops);
      metric "op_ms_tail" "ms" (float_of_int tail /. 1e6);
      metric "install_ms_p50" "ms" (ms_p50 installs);
      metric "setup_s" "s" (Samples.fmedian r.setup_s);
      metric "heap_mb" "MB" (float_of_int heap /. 1048576.);
      metric "ok_pct" "%" (100. *. ratio (List.length (List.filter ok r.ops)) (List.length r.ops));
      metric "model_slowdown_x" "x"
        (ratio (sum (fun m -> m.op.Op.model_enf) model) (sum (fun m -> m.op.Op.model_plain) model));
      metric "model_cycles_per_call" "cycles"
        (ratio (sum (fun m -> m.op.Op.verif_cycles) model) (sum (fun m -> m.op.Op.calls) model)) ],
    notes )

(* ----- per-layer metrics (traced run) ----- *)

(* ns per call of [f], median of 21 timed batches of [n] calls *)
let per_call_ns ~n f =
  Samples.fmedian
    (List.init 21 (fun _ ->
         let t0 = Sut.cpu_ns () in
         for _ = 1 to n do
           f ()
         done;
         float_of_int (Sut.cpu_ns () - t0) /. float_of_int n))

let crypto () =
  let aes = Asc_crypto.Aes.expand "bench-master-key" in
  let block = Bytes.make 16 'b' and out = Bytes.create 16 in
  let msg = String.make 64 'm' in
  [ metric "crypto.aes_block_ns" "ns"
      (per_call_ns ~n:1000 (fun () -> Asc_crypto.Aes.encrypt_block aes block ~pos:0 out ~dst_pos:0));
    metric "crypto.cmac64_ns" "ns"
      (per_call_ns ~n:250 (fun () -> ignore (Sys.opaque_identity (Asc_crypto.Cmac.mac Sut.key msg))));
    metric "crypto.cmac_block_ns" "ns"
      (per_call_ns ~n:1000 (fun () -> Asc_crypto.Cmac.mac_block_into Sut.key block ~dst:out)) ]

let pct a b = 100. *. ratio a b

(* ns of enforced Kernel.run per verified call over [ops] *)
let ns_per_call ops = ratio (sum (fun m -> m.op.Op.enf_ns) ops) (sum (fun m -> m.op.Op.calls) ops)

let per_layer r (t : Tracer.t) =
  let traced = List.filter (fun m -> m.traced && timed m) r.ops in
  let untraced = List.filter (fun m -> (not m.traced) && timed m) r.ops in
  let run_ns = (Tracer.total_of t "run").Tracer.total_ns in
  let checker = t.Tracer.checker.Tracer.total_ns and dispatch = t.Tracer.dispatch.Tracer.total_ns in
  let deny = t.Tracer.deny.Tracer.total_ns in
  let us s = float_of_int (Samples.p50 s) /. 1e3 in
  let _, checker_tail, _ = Samples.tail t.Tracer.checker_ns in
  let tl = r.tally in
  let c = Op.sum tl in
  let calls = tl.Op.traps in
  let per_call name = ratio (c name) calls in
  let reason label =
    let rec find i = if Asc_obs.Telemetry.reason_labels.(i) = label then i else find (i + 1) in
    tl.Op.reasons.(find 0)
  in
  let slow =
    reason "slow_path" + reason "fallback_no_entry" + reason "fallback_statics" + reason "fallback_tag"
  in
  let installs = List.filter (fun i -> i.Sut.policy_ns <> None) r.installs in
  let mean f = ratio (sum f installs) (List.length installs) in
  let twins = List.filter (fun m -> m.op.Op.benign && m.op.Op.plain_ns > 0 && timed m) r.ops in
  let untraced_words = sum (fun m -> m.op.Op.minor_words) untraced in
  let untraced_calls = sum (fun m -> m.op.Op.calls) untraced in
  crypto ()
  @ [ metric "checker.us_p50" "us" (us t.Tracer.checker_ns);
      metric "checker.us_tail" "us" (float_of_int checker_tail /. 1e3);
      metric "checker.share_pct" "%" (pct checker run_ns);
      metric "checker.alloc_words_per_call" "words"
        (ratio t.Tracer.checker_words t.Tracer.checker.Tracer.count);
      metric "checker.model_cycles.call_mac" "cycles" (per_call "checker.cycles.call_mac");
      metric "checker.model_cycles.string_mac" "cycles" (per_call "checker.cycles.string_mac");
      metric "checker.model_cycles.control_flow" "cycles" (per_call "checker.cycles.control_flow");
      metric "precomp.hit_pct" "%"
        (pct (c "precomp.hits")
           (c "precomp.hits" + c "precomp.resumes" + c "precomp.misses" + c "precomp.fallbacks"));
      metric "precomp.resumes" "count" (float_of_int (c "precomp.resumes"));
      metric "precomp.compiles_per_kcall" "count" (1000. *. per_call "precomp.compiles");
      metric "cfpre.hit_pct" "%"
        (pct (c "cfpre.hits") (c "cfpre.hits" + c "cfpre.misses" + c "cfpre.fallbacks"));
      metric "cfpre.compiles_per_kcall" "count" (1000. *. per_call "cfpre.compiles");
      metric "vcache.hit_pct" "%" (pct (c "vcache.hits") (c "vcache.hits" + c "vcache.misses"));
      metric "vcache.evictions" "count" (float_of_int (c "vcache.evictions"));
      metric "telemetry.slow_path_pct" "%" (pct slow (Array.fold_left ( + ) 0 tl.Op.reasons));
      metric "kernel.spawn_us_p50" "us" (us t.Tracer.spawn_ns);
      metric "kernel.dispatch_us_p50" "us" (us t.Tracer.dispatch_ns);
      metric "kernel.deny_us_p50" "us" (us t.Tracer.deny_ns);
      metric "kernel.share_pct" "%" (pct (dispatch + deny) run_ns);
      metric "svm.mips_plain" "Minstr/s"
        (median_of (fun m -> 1e3 *. ratio m.op.Op.plain_instrs m.op.Op.plain_ns) twins);
      metric "svm.share_pct" "%" (pct (run_ns - checker - dispatch - deny) run_ns);
      metric "slowdown_x" "x" (median_of (fun m -> ratio m.op.Op.enf_ns m.op.Op.plain_ns) twins);
      metric "installer.policy_ms_p50" "ms"
        (ms_p50 (samples_of (fun i -> i.Sut.policy_ns) installs));
      (* an estimate: install minus a separate generate_policy call *)
      metric "installer.rewrite_ms_p50" "ms"
        (ms_p50
           (samples_of
              (fun i ->
                match i.Sut.policy_ns with
                | Some p when i.Sut.install_ns >= p -> Some (i.Sut.install_ns - p)
                | _ -> None)
              installs));
      metric "installer.sites" "count" (mean (fun i -> i.Sut.sites));
      metric "installer.asc_bytes" "B" (mean (fun i -> i.Sut.asc_bytes));
      metric "gc.minor_words_per_call" "words" (ratio untraced_words untraced_calls);
      metric "gc.minor_collections_per_kcall" "count"
        (1000. *. ratio (sum (fun m -> m.op.Op.minor_gcs) untraced) untraced_calls);
      metric "trace.overhead_pct" "%"
        (let plain = ns_per_call untraced in
         if plain = 0. then 0. else 100. *. (ns_per_call traced -. plain) /. plain) ]

(* Accounting over the traced ops. Two checks hold by construction of the
   spans and guard the tracer itself: checker + dispatch + deny + svm (the
   run span's self time) equals the run span, and no span has negative
   self time. The others compare the spans with what the kernel counted:
   on every traced op that ran to the end, the checker spans number the
   traps Kernel.syscall_count saw, every checker span is followed by
   exactly one dispatch or deny span, and there is one deny span if the
   process was killed and none otherwise. An op cut short by a host
   exception is left out of these (its trap never returned). *)
let accounting r (t : Tracer.t) =
  let run = Tracer.total_of t "run" in
  let parts =
    [ ("checker", t.Tracer.checker.Tracer.total_ns); ("dispatch", t.Tracer.dispatch.Tracer.total_ns);
      ("deny", t.Tracer.deny.Tracer.total_ns); ("svm (run self)", run.Tracer.self_ns) ]
  in
  let traced = List.filter (fun m -> m.traced) (r.ops @ r.probes) in
  let checked = List.filter timed traced in
  let mismatched =
    List.filter
      (fun m ->
        match Hashtbl.find_opt t.Tracer.op_counts m.index with
        | None -> true
        | Some c ->
          c.Tracer.o_checker <> m.op.Op.calls
          || c.Tracer.o_dispatch + c.Tracer.o_deny <> c.Tracer.o_checker
          || c.Tracer.o_deny <> if m.op.Op.killed then 1 else 0)
      checked
  in
  let count f =
    sum
      (fun m -> match Hashtbl.find_opt t.Tracer.op_counts m.index with Some c -> f c | None -> 0)
      checked
  in
  let ms ns = float_of_int ns /. 1e6 in
  let lines =
    Printf.sprintf "spans with negative self time: %d" t.Tracer.negative
    :: Printf.sprintf
         "span counts on %d traced ops (%d cut short, left out): %d checker, %d traps, %d dispatch, %d deny, %d killed; ops not matching: %d"
         (List.length checked) (List.length traced - List.length checked)
         (count (fun c -> c.Tracer.o_checker)) (sum (fun m -> m.op.Op.calls) checked)
         (count (fun c -> c.Tracer.o_dispatch)) (count (fun c -> c.Tracer.o_deny))
         (List.length (List.filter (fun m -> m.op.Op.killed) checked)) (List.length mismatched)
    :: Printf.sprintf "span accounting: run %.3f ms over %d runs =" (ms run.Tracer.total_ns) run.Tracer.count
    :: List.map
         (fun (n, v) -> Printf.sprintf "  %-15s %10.3f ms %6.2f%%" n (ms v) (pct v run.Tracer.total_ns))
         parts
    @ List.map
        (fun (n, (s : Tracer.total)) ->
          Printf.sprintf "  span %-10s count %8d total %10.3f ms self %10.3f ms" n s.Tracer.count
            (ms s.Tracer.total_ns) (ms s.Tracer.self_ns))
        (List.sort compare (List.of_seq (Hashtbl.to_seq t.Tracer.totals)))
    @ List.map
        (fun m -> Printf.sprintf "  op %d: span counts do not match the kernel's" m.index)
        (List.filteri (fun i _ -> i < 5) mismatched)
  in
  let balanced =
    sum snd parts = run.Tracer.total_ns
    && t.Tracer.negative = 0
    && mismatched = []
    && checked <> []
  in
  (balanced, lines)
