(** Fleet health: a declarative SLO rule engine over {!Telemetry}
    snapshot rows.

    Rules are evaluated once per snapshot row (one per emitter interval).
    Each rule computes one {e signal} from the row — a raw field, a ratio
    of two fields, or one of the built-in rates derived from the
    cumulative reason counters (the engine remembers the previous row, so
    cumulative counters become per-interval deltas) — and compares it to a
    threshold, either directly or as a {e burn rate} (the mean over a
    sliding window of recent intervals, the SLO error-budget view).

    Breaches do not flap: a rule arms on its first breaching interval,
    fires only after [for] {e consecutive} breaches, and once fired clears
    only after [cool] consecutive healthy intervals. Every state change is
    emitted as a {!transition}; the conservation invariant
    [fired = cleared + currently firing] holds at every point (each fired
    alert is either cleared already or still active — the QCheck test in
    [test_obs] pins this). An interval in which a rule's signal is
    undefined (e.g. a rate over zero calls) changes nothing. *)

type signal =
  | Deny_rate           (** 100 * interval_denies / interval_calls *)
  | Precomp_hit_rate    (** 100 * Δprecomp_hit / interval_calls *)
  | Vcache_hit_rate     (** 100 * Δvcache_hit / interval_calls *)
  | P99_cycles          (** the row's [p99] field *)
  | Alloc_per_call      (** interval_alloc_words / interval_calls *)
  | Field of string     (** any numeric row field, verbatim *)
  | Ratio of string * string  (** 100 * field_a / field_b (undefined when b = 0) *)

type op = Gt | Ge | Lt | Le

type rule = {
  r_name : string;
  r_signal : signal;
  r_op : op;
  r_threshold : float;
  r_window : int;   (** 1 = plain threshold; > 1 = burn rate (mean over
                        the last [window] defined signal values) *)
  r_for : int;      (** consecutive breaching intervals before firing *)
  r_cool : int;     (** consecutive healthy intervals before clearing *)
}

val default_rules : rule list
(** Compiled-in defaults covering the four SLOs the ISSUE names: deny
    rate (threshold + burn rate), precomp hit rate, p99 dispatch cycles
    and per-call minor words. *)

val rules_of_json : Json.t -> (rule list, string) result
(** Parse a rule spec: [{"rules": [{"name", "signal", "op", "threshold",
    "window"?, "for"?, "cool"?}, ...]}]. ["signal"] is a built-in name
    ([deny_rate_pct], [precomp_hit_rate_pct], [vcache_hit_rate_pct],
    [p99_cycles], [alloc_words_per_call]), [{"field": f}], or
    [{"ratio": [num, den]}]. ["op"] is one of [">" ">=" "<" "<="].
    [window]/[for]/[cool] default to 1. *)

val rules_of_string : string -> (rule list, string) result
val rule_to_json : rule -> Json.t
(** Round-trips through {!rules_of_json} (built-in signals keep their
    names; thresholds and hysteresis parameters are preserved). *)

(** {1 Evaluation} *)

type event = Armed | Disarmed | Fired | Cleared

val event_label : event -> string

type transition = {
  tr_rule : string;
  tr_event : event;
  tr_ts : int;          (** the triggering row's [ts] *)
  tr_value : float;     (** the evaluated signal (windowed mean for burn rules) *)
  tr_threshold : float;
}

val transition_to_json : transition -> Json.t
(** [{"ts", "rule", "event", "value", "threshold"}]. *)

type t

val create : rule list -> t
(** Fresh engine, every rule healthy.
    @raise Invalid_argument on a rule with [window], [for] or [cool] < 1,
    or a duplicate rule name. *)

val observe : t -> Json.t -> transition list
(** Evaluate every rule against one snapshot row (rows must be fed oldest
    first — the engine deltas the cumulative reason counters between
    consecutive calls). Returns the transitions this row caused, in rule
    order. *)

val observe_all : t -> Json.t list -> transition list
(** Fold {!observe} over rows, concatenating transitions. *)

val transitions : t -> transition list
(** Every transition emitted so far, oldest first. *)

val firing : t -> string list
(** Names of rules currently in the fired (active alert) state. *)

val counts : t -> int * int * int * int
(** (armed, disarmed, fired, cleared) totals. Conservation:
    [fired = cleared + List.length (firing t)]. *)

val summary : t -> string
(** One human line per rule: state, last value, threshold. *)
