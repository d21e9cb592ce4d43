type fallback = F_no_entry | F_statics | F_tag

type reason =
  | Precomp_hit
  | Precomp_fallback of fallback
  | Vcache_hit
  | Slow_path
  | Deny of string

let num_reasons = 7

let reason_index = function
  | Precomp_hit -> 0
  | Precomp_fallback F_no_entry -> 1
  | Precomp_fallback F_statics -> 2
  | Precomp_fallback F_tag -> 3
  | Vcache_hit -> 4
  | Slow_path -> 5
  | Deny _ -> 6

let reason_labels =
  [| "precomp_hit"; "fallback_no_entry"; "fallback_statics"; "fallback_tag"; "vcache_hit";
     "slow_path"; "deny" |]

let reason_label r = reason_labels.(reason_index r)

(* Second exhaustive per-call dimension: how the control-flow step (the
   predecessor check + lbMAC update) was resolved. Orthogonal to [reason],
   which reports the call-MAC resolution — a call can be a precomp hit on
   step 1 and a bitset fallback on step 3. Exactly one code per monitored
   call; [Cf_none] covers calls with no control-flow policy (or no cfpre
   armed), so the buckets always sum to the call count. *)
type cf_reason =
  | Cf_none
  | Cf_hit
  | Cf_slow
  | Cf_fallback_ref
  | Cf_fallback_contents

let num_cf_reasons = 5

let cf_index = function
  | Cf_none -> 0
  | Cf_hit -> 1
  | Cf_slow -> 2
  | Cf_fallback_ref -> 3
  | Cf_fallback_contents -> 4

let cf_labels = [| "cf_none"; "cf_hit"; "cf_slow"; "cf_fallback_ref"; "cf_fallback_contents" |]
let cf_label c = cf_labels.(cf_index c)

type ledger_entry = {
  le_site : int;
  le_sem : string;
  le_reason : reason;
  le_cycles : int;
  le_alloc : int;
  le_ts : int;
}

(* Shard-internal histogram: mutable counterpart of the exported [hist].
   Counts are over the plane's shared bucket bounds (last slot = overflow)
   so merging reduces to element-wise addition. *)
type mhist = {
  m_counts : int array;
  mutable m_sum : int;
  mutable m_count : int;
}

type hist = {
  q_counts : int array;
  q_sum : int;
  q_count : int;
}

type shard = {
  sh_pid : int;
  sh_reasons : int array;
  sh_cf : int array;
  sh_deny : (string, int) Hashtbl.t;
  sh_per_sem : (string, mhist) Hashtbl.t;
  sh_sites : (int, int array) Hashtbl.t;
  sh_site_alloc : (int, int) Hashtbl.t;   (* site -> minor words rollup *)
  sh_alloc : mhist;                       (* per-call minor words, alloc bounds *)
  sh_ledger : ledger_entry Ring.t;
  mutable sh_calls : int;
  mutable sh_cycles : int;
  mutable sh_self : int;
}

type stats = {
  t_shards : int;
  t_calls : int;
  t_cycles : int;
  t_self_cycles : int;
  t_alloc_words : int;
  t_reasons : int array;
  t_cf : int array;
  t_deny_steps : (string * int) list;
  t_per_sem : (string * hist) list;
  t_sites : (int * int array) list;
  t_site_alloc : (int * int) list;
  t_alloc : hist;                         (* per-call minor words, alloc bounds *)
}

type t = {
  bounds : int array;          (* shared cycle-histogram bucket bounds *)
  nslots : int;                (* Array.length bounds + 1 (overflow) *)
  a_bounds : int array;        (* alloc-histogram bucket bounds (words) *)
  a_nslots : int;
  ring_capacity : int;
  shards : (int, shard) Hashtbl.t;
  mutable retired : stats;
  (* plane-global cumulative mirrors, feeding the snapshot emitter *)
  g_hist : mhist;
  g_alloc : mhist;
  g_reasons : int array;
  g_cf : int array;
  mutable g_records : int;
  mutable g_denies : int;
  mutable g_self : int;
  (* emitter state *)
  mutable em_interval : int;   (* 0 = disarmed *)
  mutable em_next : int;
  mutable em_rows : Json.t list;  (* newest first *)
  mutable em_last_counts : int array;  (* g_hist.m_counts at the last row *)
  mutable em_last_calls : int;
  mutable em_last_denies : int;
  mutable em_last_cycles : int;
  mutable em_last_alloc : int;
}

let default_buckets = lazy (Metrics.log_linear_buckets ~lo:100 ~hi:1_000_000)

(* per-call minor words run two orders of magnitude below per-call cycles
   (~10^2..10^3 words vs ~10^3..10^6 cycles), so the alloc histograms get
   their own log-linear ladder starting at 10 words *)
let default_alloc_buckets = lazy (Metrics.log_linear_buckets ~lo:10 ~hi:1_000_000)

let empty_hist = { q_counts = [||]; q_sum = 0; q_count = 0 }

let empty_stats = {
  t_shards = 0;
  t_calls = 0;
  t_cycles = 0;
  t_self_cycles = 0;
  t_alloc_words = 0;
  t_reasons = Array.make num_reasons 0;
  t_cf = Array.make num_cf_reasons 0;
  t_deny_steps = [];
  t_per_sem = [];
  t_sites = [];
  t_site_alloc = [];
  t_alloc = empty_hist;
}

let check_bounds what bounds =
  if Array.length bounds = 0 then invalid_arg ("Telemetry.create: empty " ^ what);
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then
        invalid_arg ("Telemetry.create: " ^ what ^ " must be strictly increasing"))
    bounds

let create ?(ring_capacity = 256) ?buckets ?alloc_buckets () =
  let buckets = match buckets with Some b -> b | None -> Lazy.force default_buckets in
  let alloc_buckets =
    match alloc_buckets with Some b -> b | None -> Lazy.force default_alloc_buckets
  in
  let bounds = Array.of_list buckets in
  let a_bounds = Array.of_list alloc_buckets in
  check_bounds "buckets" bounds;
  check_bounds "alloc buckets" a_bounds;
  let nslots = Array.length bounds + 1 in
  let a_nslots = Array.length a_bounds + 1 in
  { bounds;
    nslots;
    a_bounds;
    a_nslots;
    ring_capacity;
    shards = Hashtbl.create 16;
    (* the retired aggregate's alloc hist must be shaped like the live
       shards' so [merge]'s element-wise bucket addition lines up *)
    retired = { empty_stats with t_alloc = { empty_hist with q_counts = Array.make a_nslots 0 } };
    g_hist = { m_counts = Array.make nslots 0; m_sum = 0; m_count = 0 };
    g_alloc = { m_counts = Array.make a_nslots 0; m_sum = 0; m_count = 0 };
    g_reasons = Array.make num_reasons 0;
    g_cf = Array.make num_cf_reasons 0;
    g_records = 0;
    g_denies = 0;
    g_self = 0;
    em_interval = 0;
    em_next = 0;
    em_rows = [];
    em_last_counts = Array.make nslots 0;
    em_last_calls = 0;
    em_last_denies = 0;
    em_last_cycles = 0;
    em_last_alloc = 0 }

let shard t ~pid =
  match Hashtbl.find_opt t.shards pid with
  | Some sh -> sh
  | None ->
    let sh = {
      sh_pid = pid;
      sh_reasons = Array.make num_reasons 0;
      sh_cf = Array.make num_cf_reasons 0;
      sh_deny = Hashtbl.create 4;
      sh_per_sem = Hashtbl.create 16;
      sh_sites = Hashtbl.create 32;
      sh_site_alloc = Hashtbl.create 32;
      sh_alloc = { m_counts = Array.make t.a_nslots 0; m_sum = 0; m_count = 0 };
      sh_ledger = Ring.create ~capacity:t.ring_capacity;
      sh_calls = 0;
      sh_cycles = 0;
      sh_self = 0 }
    in
    Hashtbl.replace t.shards pid sh;
    sh

let mhist_observe bounds h v =
  let n = Array.length bounds in
  let rec slot i = if i >= n || v <= bounds.(i) then i else slot (i + 1) in
  h.m_counts.(slot 0) <- h.m_counts.(slot 0) + 1;
  h.m_sum <- h.m_sum + v;
  h.m_count <- h.m_count + 1

let snapshot_of_counts bounds counts sum count =
  { Metrics.h_buckets =
      Array.to_list (Array.mapi (fun i b -> (b, counts.(i))) bounds);
    h_overflow = counts.(Array.length bounds);
    h_count = count;
    h_sum = sum }

let hist_snapshot_of bounds h = snapshot_of_counts bounds h.q_counts h.q_sum h.q_count
let hist_snapshot t h = hist_snapshot_of t.bounds h
let alloc_hist_snapshot t h = hist_snapshot_of t.a_bounds h

(* Cut one time-series row: cumulative counters, the interval's deltas,
   and p50/p95/p99 over the interval's verification-cycle observations
   (quantiles of the bucket-count deltas since the previous row). *)
let cut_row t ~now =
  let d_counts = Array.mapi (fun i c -> c - t.em_last_counts.(i)) t.g_hist.m_counts in
  let d_calls = t.g_hist.m_count - t.em_last_calls in
  let d_cycles = t.g_hist.m_sum - t.em_last_cycles in
  let d_denies = t.g_denies - t.em_last_denies in
  let d_alloc = t.g_alloc.m_sum - t.em_last_alloc in
  let snap = snapshot_of_counts t.bounds d_counts d_cycles d_calls in
  let q p = Metrics.quantile snap p in
  let row =
    Json.Obj [
      ("ts", Json.Int now);
      ("calls", Json.Int t.g_hist.m_count);
      ("denies", Json.Int t.g_denies);
      ("cycles", Json.Int t.g_hist.m_sum);
      ("self_cycles", Json.Int t.g_self);
      ("alloc_words", Json.Int t.g_alloc.m_sum);
      ("interval_calls", Json.Int d_calls);
      ("interval_denies", Json.Int d_denies);
      ("interval_cycles", Json.Int d_cycles);
      ("interval_alloc_words", Json.Int d_alloc);
      ("reasons",
       Json.Obj
         (Array.to_list
            (Array.mapi (fun i l -> (l, Json.Int t.g_reasons.(i))) reason_labels)));
      ("p50", Json.Int (q 0.50));
      ("p95", Json.Int (q 0.95));
      ("p99", Json.Int (q 0.99));
    ]
  in
  t.em_rows <- row :: t.em_rows;
  t.em_last_counts <- Array.copy t.g_hist.m_counts;
  t.em_last_calls <- t.g_hist.m_count;
  t.em_last_denies <- t.g_denies;
  t.em_last_cycles <- t.g_hist.m_sum;
  t.em_last_alloc <- t.g_alloc.m_sum

let record t ?(cf = Cf_none) sh ~site ~sem ~reason ~cycles ~alloc ~now =
  let idx = reason_index reason in
  sh.sh_reasons.(idx) <- sh.sh_reasons.(idx) + 1;
  let cfi = cf_index cf in
  sh.sh_cf.(cfi) <- sh.sh_cf.(cfi) + 1;
  t.g_cf.(cfi) <- t.g_cf.(cfi) + 1;
  sh.sh_calls <- sh.sh_calls + 1;
  sh.sh_cycles <- sh.sh_cycles + cycles;
  (match reason with
   | Deny step ->
     Hashtbl.replace sh.sh_deny step
       (1 + (match Hashtbl.find_opt sh.sh_deny step with Some n -> n | None -> 0))
   | _ -> ());
  let sem_hist =
    match Hashtbl.find_opt sh.sh_per_sem sem with
    | Some h -> h
    | None ->
      let h = { m_counts = Array.make t.nslots 0; m_sum = 0; m_count = 0 } in
      Hashtbl.replace sh.sh_per_sem sem h;
      h
  in
  mhist_observe t.bounds sem_hist cycles;
  mhist_observe t.a_bounds sh.sh_alloc alloc;
  let site_counts =
    match Hashtbl.find_opt sh.sh_sites site with
    | Some a -> a
    | None ->
      let a = Array.make num_reasons 0 in
      Hashtbl.replace sh.sh_sites site a;
      a
  in
  site_counts.(idx) <- site_counts.(idx) + 1;
  Hashtbl.replace sh.sh_site_alloc site
    (alloc + (match Hashtbl.find_opt sh.sh_site_alloc site with Some w -> w | None -> 0));
  Ring.push sh.sh_ledger
    { le_site = site; le_sem = sem; le_reason = reason; le_cycles = cycles;
      le_alloc = alloc; le_ts = now };
  t.g_records <- t.g_records + 1;
  t.g_reasons.(idx) <- t.g_reasons.(idx) + 1;
  if idx = reason_index (Deny "") then t.g_denies <- t.g_denies + 1;
  mhist_observe t.bounds t.g_hist cycles;
  mhist_observe t.a_bounds t.g_alloc alloc;
  if t.em_interval > 0 && now >= t.em_next then begin
    cut_row t ~now;
    t.em_next <- now + t.em_interval
  end

let note_self t sh n =
  sh.sh_self <- sh.sh_self + n;
  t.g_self <- t.g_self + n

(* Sorted-assoc helpers: shard hashtables are exported as sorted assoc
   lists so aggregates built in any order compare structurally equal. *)
let sorted_assoc tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let stats_of_shard _t sh =
  { t_shards = 1;
    t_calls = sh.sh_calls;
    t_cycles = sh.sh_cycles;
    t_self_cycles = sh.sh_self;
    t_alloc_words = sh.sh_alloc.m_sum;
    t_reasons = Array.copy sh.sh_reasons;
    t_cf = Array.copy sh.sh_cf;
    t_deny_steps = sorted_assoc sh.sh_deny;
    t_per_sem =
      List.map
        (fun (k, h) ->
          (k, { q_counts = Array.copy h.m_counts; q_sum = h.m_sum; q_count = h.m_count }))
        (sorted_assoc sh.sh_per_sem);
    t_sites = List.map (fun (k, a) -> (k, Array.copy a)) (sorted_assoc sh.sh_sites);
    t_site_alloc = sorted_assoc sh.sh_site_alloc;
    t_alloc =
      { q_counts = Array.copy sh.sh_alloc.m_counts;
        q_sum = sh.sh_alloc.m_sum;
        q_count = sh.sh_alloc.m_count } }

let add_arrays a b =
  if Array.length a <> Array.length b then
    invalid_arg "Telemetry.merge: mismatched array shapes";
  Array.mapi (fun i x -> x + b.(i)) a

let merge_hist a b =
  (* a zero-length histogram is the merge identity (e.g. [empty_stats]
     before any plane sized its bucket array) *)
  if Array.length a.q_counts = 0 then b
  else if Array.length b.q_counts = 0 then a
  else
    { q_counts = add_arrays a.q_counts b.q_counts;
      q_sum = a.q_sum + b.q_sum;
      q_count = a.q_count + b.q_count }

(* Union of two sorted assoc lists, combining values on key collision.
   Output stays sorted, so the merge result is independent of operand
   order up to structural equality. *)
let rec assoc_union combine xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
    if kx < ky then (kx, vx) :: assoc_union combine xs' ys
    else if ky < kx then (ky, vy) :: assoc_union combine xs ys'
    else (kx, combine vx vy) :: assoc_union combine xs' ys'

let merge a b =
  { t_shards = a.t_shards + b.t_shards;
    t_calls = a.t_calls + b.t_calls;
    t_cycles = a.t_cycles + b.t_cycles;
    t_self_cycles = a.t_self_cycles + b.t_self_cycles;
    t_alloc_words = a.t_alloc_words + b.t_alloc_words;
    t_reasons = add_arrays a.t_reasons b.t_reasons;
    t_cf = add_arrays a.t_cf b.t_cf;
    t_deny_steps = assoc_union ( + ) a.t_deny_steps b.t_deny_steps;
    t_per_sem = assoc_union merge_hist a.t_per_sem b.t_per_sem;
    t_sites = assoc_union add_arrays a.t_sites b.t_sites;
    t_site_alloc = assoc_union ( + ) a.t_site_alloc b.t_site_alloc;
    t_alloc = merge_hist a.t_alloc b.t_alloc }

let aggregate t =
  Hashtbl.fold (fun _ sh acc -> merge acc (stats_of_shard t sh)) t.shards t.retired

let reasons_total s = Array.fold_left ( + ) 0 s.t_reasons
let cf_total s = Array.fold_left ( + ) 0 s.t_cf

let retire_pid t ~pid =
  match Hashtbl.find_opt t.shards pid with
  | None -> ()
  | Some sh ->
    t.retired <- merge t.retired (stats_of_shard t sh);
    Hashtbl.remove t.shards pid

let ledger t ~pid =
  match Hashtbl.find_opt t.shards pid with
  | Some sh -> Ring.to_list sh.sh_ledger
  | None -> []

let live_pids t =
  List.sort compare (Hashtbl.fold (fun pid _ acc -> pid :: acc) t.shards [])

let set_emitter t ~interval =
  if interval < 1 then invalid_arg "Telemetry.set_emitter: interval must be >= 1";
  t.em_interval <- interval;
  t.em_next <- interval

let snapshots t = List.rev t.em_rows

let snapshots_jsonl t =
  String.concat "" (List.map (fun row -> Json.to_string row ^ "\n") (snapshots t))

let self_cycles t = t.g_self
let records t = t.g_records

let stats_to_json t s =
  let quantiles bounds unit h =
    let snap = hist_snapshot_of bounds h in
    Json.Obj [
      ("count", Json.Int h.q_count);
      ("sum_" ^ unit, Json.Int h.q_sum);
      ("mean_" ^ unit, Json.Int (if h.q_count = 0 then 0 else h.q_sum / h.q_count));
      ("p50", Json.Int (Metrics.quantile snap 0.50));
      ("p95", Json.Int (Metrics.quantile snap 0.95));
      ("p99", Json.Int (Metrics.quantile snap 0.99));
    ]
  in
  Json.Obj [
    ("shards", Json.Int s.t_shards);
    ("calls", Json.Int s.t_calls);
    ("cycles", Json.Int s.t_cycles);
    ("self_cycles", Json.Int s.t_self_cycles);
    ("alloc_words", Json.Int s.t_alloc_words);
    ("reasons_total", Json.Int (reasons_total s));
    ("reasons",
     Json.Obj
       (Array.to_list (Array.mapi (fun i l -> (l, Json.Int s.t_reasons.(i))) reason_labels)));
    ("cf_reasons",
     Json.Obj
       (Array.to_list (Array.mapi (fun i l -> (l, Json.Int s.t_cf.(i))) cf_labels)));
    ("deny_steps",
     Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) s.t_deny_steps));
    ("per_syscall",
     Json.Obj (List.map (fun (k, h) -> (k, quantiles t.bounds "cycles" h)) s.t_per_sem));
    ("alloc",
     if Array.length s.t_alloc.q_counts = 0 then
       quantiles [||] "words" { s.t_alloc with q_counts = [| 0 |] }
     else quantiles t.a_bounds "words" s.t_alloc);
    ("sites",
     Json.List
       (List.map
          (fun (site, counts) ->
            Json.Obj
              (("site", Json.Int site)
               :: ("alloc_words",
                   Json.Int
                     (match List.assoc_opt site s.t_site_alloc with Some w -> w | None -> 0))
               :: Array.to_list
                    (Array.mapi (fun i l -> (l, Json.Int counts.(i))) reason_labels)))
          s.t_sites));
  ]
