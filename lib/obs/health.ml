type signal =
  | Deny_rate
  | Precomp_hit_rate
  | Vcache_hit_rate
  | P99_cycles
  | Alloc_per_call
  | Field of string
  | Ratio of string * string

type op = Gt | Ge | Lt | Le

type rule = {
  r_name : string;
  r_signal : signal;
  r_op : op;
  r_threshold : float;
  r_window : int;
  r_for : int;
  r_cool : int;
}

let default_rules =
  [
    { r_name = "deny-rate"; r_signal = Deny_rate; r_op = Gt; r_threshold = 1.0;
      r_window = 1; r_for = 2; r_cool = 2 };
    { r_name = "deny-burn"; r_signal = Deny_rate; r_op = Gt; r_threshold = 0.5;
      r_window = 5; r_for = 1; r_cool = 2 };
    { r_name = "precomp-hit-rate"; r_signal = Precomp_hit_rate; r_op = Lt; r_threshold = 40.0;
      r_window = 1; r_for = 3; r_cool = 3 };
    { r_name = "p99-dispatch"; r_signal = P99_cycles; r_op = Gt; r_threshold = 60_000.0;
      r_window = 1; r_for = 2; r_cool = 2 };
    { r_name = "alloc-per-call"; r_signal = Alloc_per_call; r_op = Gt; r_threshold = 1_500.0;
      r_window = 1; r_for = 2; r_cool = 2 };
  ]

let signal_names =
  [
    ("deny_rate_pct", Deny_rate);
    ("precomp_hit_rate_pct", Precomp_hit_rate);
    ("vcache_hit_rate_pct", Vcache_hit_rate);
    ("p99_cycles", P99_cycles);
    ("alloc_words_per_call", Alloc_per_call);
  ]

let signal_name s =
  match List.find_opt (fun (_, s') -> s' = s) signal_names with
  | Some (n, _) -> Some n
  | None -> None

let op_names = [ (">", Gt); (">=", Ge); ("<", Lt); ("<=", Le) ]
let op_label op = fst (List.find (fun (_, o) -> o = op) op_names)

let ( let* ) = Result.bind

let signal_of_json = function
  | Json.Str name -> (
      match List.assoc_opt name signal_names with
      | Some s -> Ok s
      | None ->
          Error
            (Printf.sprintf "unknown signal %S (want one of %s, {\"field\":f} or {\"ratio\":[a,b]})"
               name
               (String.concat ", " (List.map fst signal_names))))
  | Json.Obj _ as j -> (
      match (Json.member "field" j, Json.member "ratio" j) with
      | Some (Json.Str f), None -> Ok (Field f)
      | None, Some (Json.List [ Json.Str a; Json.Str b ]) -> Ok (Ratio (a, b))
      | _ -> Error "malformed signal object (want {\"field\":f} or {\"ratio\":[a,b]})")
  | _ -> Error "signal must be a string or an object"

let rule_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let fnum k = Option.bind (Json.member k j) Json.to_float in
  let inum ~default k =
    match Json.member k j with
    | None -> Ok default
    | Some v -> (
        match Json.to_int v with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "%S must be an integer >= 1" k))
  in
  let* name = Option.to_result ~none:"rule missing \"name\"" (str "name") in
  let ctx msg = Printf.sprintf "rule %S: %s" name msg in
  let* signal =
    match Json.member "signal" j with
    | None -> Error (ctx "missing \"signal\"")
    | Some s -> Result.map_error ctx (signal_of_json s)
  in
  let* op =
    match str "op" with
    | Some o -> (
        match List.assoc_opt o op_names with
        | Some op -> Ok op
        | None -> Error (ctx (Printf.sprintf "unknown op %S (want > >= < <=)" o)))
    | None -> Error (ctx "missing \"op\"")
  in
  let* threshold =
    Option.to_result ~none:(ctx "missing numeric \"threshold\"") (fnum "threshold")
  in
  let* window = Result.map_error ctx (inum ~default:1 "window") in
  let* r_for = Result.map_error ctx (inum ~default:1 "for") in
  let* cool = Result.map_error ctx (inum ~default:1 "cool") in
  Ok
    { r_name = name; r_signal = signal; r_op = op; r_threshold = threshold;
      r_window = window; r_for; r_cool = cool }

let rules_of_json j =
  match Json.member "rules" j with
  | Some (Json.List rs) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest ->
            let* rule = rule_of_json r in
            go (rule :: acc) rest
      in
      go [] rs
  | _ -> Error "rule spec must be {\"rules\": [...]}"

let rules_of_string s =
  let* j = Json.parse s in
  rules_of_json j

let rule_to_json r =
  let signal =
    match r.r_signal with
    | Field f -> Json.Obj [ ("field", Json.Str f) ]
    | Ratio (a, b) -> Json.Obj [ ("ratio", Json.List [ Json.Str a; Json.Str b ]) ]
    | s -> Json.Str (Option.get (signal_name s))
  in
  Json.Obj
    [
      ("name", Json.Str r.r_name);
      ("signal", signal);
      ("op", Json.Str (op_label r.r_op));
      ("threshold", Json.Float r.r_threshold);
      ("window", Json.Int r.r_window);
      ("for", Json.Int r.r_for);
      ("cool", Json.Int r.r_cool);
    ]

type event = Armed | Disarmed | Fired | Cleared

let event_label = function
  | Armed -> "armed"
  | Disarmed -> "disarmed"
  | Fired -> "fired"
  | Cleared -> "cleared"

type transition = {
  tr_rule : string;
  tr_event : event;
  tr_ts : int;
  tr_value : float;
  tr_threshold : float;
}

let transition_to_json tr =
  Json.Obj
    [
      ("ts", Json.Int tr.tr_ts);
      ("rule", Json.Str tr.tr_rule);
      ("event", Json.Str (event_label tr.tr_event));
      ("value", Json.Float tr.tr_value);
      ("threshold", Json.Float tr.tr_threshold);
    ]

(* Per-rule hysteresis state: [Pending] counts consecutive breaches on
   the way to firing, [Firing] counts consecutive healthy intervals on
   the way to clearing. *)
type state = Healthy | Pending of int | Firing of int

type rstate = {
  rs_rule : rule;
  mutable rs_state : state;
  mutable rs_window : float list;  (* recent defined signal values, newest first *)
  mutable rs_last : float option;  (* last evaluated (windowed) value *)
}

type t = {
  rules : rstate list;
  mutable last_reasons : (string * int) list;  (* cumulative, from the previous row *)
  mutable trs : transition list;  (* newest first *)
  mutable n_armed : int;
  mutable n_disarmed : int;
  mutable n_fired : int;
  mutable n_cleared : int;
}

let create rules =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun r ->
      if r.r_window < 1 || r.r_for < 1 || r.r_cool < 1 then
        invalid_arg (Printf.sprintf "Health.create: rule %S: window/for/cool must be >= 1" r.r_name);
      if Hashtbl.mem seen r.r_name then
        invalid_arg (Printf.sprintf "Health.create: duplicate rule name %S" r.r_name);
      Hashtbl.add seen r.r_name ())
    rules;
  {
    rules = List.map (fun r -> { rs_rule = r; rs_state = Healthy; rs_window = []; rs_last = None }) rules;
    last_reasons = [];
    trs = [];
    n_armed = 0;
    n_disarmed = 0;
    n_fired = 0;
    n_cleared = 0;
  }

let field row k = Option.bind (Json.member k row) Json.to_float

let eval_signal ~row ~reason_delta = function
  | Field f -> field row f
  | P99_cycles -> field row "p99"
  | Ratio (a, b) -> (
      match (field row a, field row b) with
      | Some av, Some bv when bv > 0.0 -> Some (100.0 *. av /. bv)
      | _ -> None)
  | (Deny_rate | Precomp_hit_rate | Vcache_hit_rate | Alloc_per_call) as s -> (
      match field row "interval_calls" with
      | Some calls when calls > 0.0 -> (
          match s with
          | Deny_rate ->
              Option.map (fun d -> 100.0 *. d /. calls) (field row "interval_denies")
          | Alloc_per_call ->
              Option.map (fun w -> w /. calls) (field row "interval_alloc_words")
          | Precomp_hit_rate ->
              Some (100.0 *. float_of_int (reason_delta "precomp_hit") /. calls)
          | Vcache_hit_rate -> Some (100.0 *. float_of_int (reason_delta "vcache_hit") /. calls)
          | _ -> None)
      | _ -> None)

let breaches op threshold v =
  match op with Gt -> v > threshold | Ge -> v >= threshold | Lt -> v < threshold | Le -> v <= threshold

let take n l =
  let rec go n = function x :: rest when n > 0 -> x :: go (n - 1) rest | _ -> [] in
  go n l

let observe t row =
  let ts = match Option.bind (Json.member "ts" row) Json.to_int with Some n -> n | None -> 0 in
  let cur_reasons =
    match Json.member "reasons" row with
    | Some (Json.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
    | _ -> []
  in
  let prev_reasons = t.last_reasons in
  let reason_delta label =
    let cur = match List.assoc_opt label cur_reasons with Some n -> n | None -> 0 in
    let prev = match List.assoc_opt label prev_reasons with Some n -> n | None -> 0 in
    cur - prev
  in
  if cur_reasons <> [] then t.last_reasons <- cur_reasons;
  let emitted = ref [] in
  List.iter
    (fun rs ->
      let r = rs.rs_rule in
      match eval_signal ~row ~reason_delta r.r_signal with
      | None -> ()  (* undefined this interval: no state change *)
      | Some raw ->
          rs.rs_window <- take r.r_window (raw :: rs.rs_window);
          let value =
            if r.r_window = 1 then raw
            else
              List.fold_left ( +. ) 0.0 rs.rs_window /. float_of_int (List.length rs.rs_window)
          in
          rs.rs_last <- Some value;
          let emit ev =
            (match ev with
            | Armed -> t.n_armed <- t.n_armed + 1
            | Disarmed -> t.n_disarmed <- t.n_disarmed + 1
            | Fired -> t.n_fired <- t.n_fired + 1
            | Cleared -> t.n_cleared <- t.n_cleared + 1);
            let tr =
              { tr_rule = r.r_name; tr_event = ev; tr_ts = ts; tr_value = value;
                tr_threshold = r.r_threshold }
            in
            t.trs <- tr :: t.trs;
            emitted := tr :: !emitted
          in
          let breach = breaches r.r_op r.r_threshold value in
          (match (rs.rs_state, breach) with
          | Healthy, false -> ()
          | Healthy, true ->
              if r.r_for <= 1 then begin rs.rs_state <- Firing 0; emit Fired end
              else begin rs.rs_state <- Pending 1; emit Armed end
          | Pending k, true ->
              if k + 1 >= r.r_for then begin rs.rs_state <- Firing 0; emit Fired end
              else rs.rs_state <- Pending (k + 1)
          | Pending _, false -> rs.rs_state <- Healthy; emit Disarmed
          | Firing _, true -> rs.rs_state <- Firing 0
          | Firing h, false ->
              if h + 1 >= r.r_cool then begin rs.rs_state <- Healthy; emit Cleared end
              else rs.rs_state <- Firing (h + 1)))
    t.rules;
  List.rev !emitted

let observe_all t rows = List.concat_map (observe t) rows

let transitions t = List.rev t.trs
let firing t =
  List.filter_map
    (fun rs -> match rs.rs_state with Firing _ -> Some rs.rs_rule.r_name | _ -> None)
    t.rules

let counts t = (t.n_armed, t.n_disarmed, t.n_fired, t.n_cleared)

let summary t =
  let buf = Buffer.create 256 in
  List.iter
    (fun rs ->
      let r = rs.rs_rule in
      let state =
        match rs.rs_state with
        | Healthy -> "ok"
        | Pending k -> Printf.sprintf "armed(%d/%d)" k r.r_for
        | Firing _ -> "FIRING"
      in
      let last = match rs.rs_last with Some v -> Printf.sprintf "%.2f" v | None -> "-" in
      Buffer.add_string buf
        (Printf.sprintf "%-18s %-10s last=%-10s %s %.2f%s\n" r.r_name state last
           (op_label r.r_op) r.r_threshold
           (if r.r_window > 1 then Printf.sprintf " (burn, window %d)" r.r_window else "")))
    t.rules;
  Buffer.contents buf
