(** Site-indexed memo of verified calls — the exec-time fast path in front
    of the call-MAC check.

    The vcache ({!Vcache}) removes repeated CMAC computations but still
    pays, on every trap, for serializing the encoded call and hashing it
    as the cache key. The memo moves that work to (at most) once per call
    site: the first successful slow-path verification at a site {e
    compiles} the memo half of the site's {!Sitetab.row}, holding the
    verified call, its supplied tag and its encoded length.

    On later traps {!check} compares the live call with the memo: when the
    structural statics (number, site, descriptor, block id), every dynamic
    field and the supplied tag all equal the memo, the verification is the
    same byte string as the compiled one and needs no MAC work at all.
    Anything else — no memo, a structural or dynamic-field mismatch, a
    tag mismatch — is a {!constructor-Fallback}: the caller runs the
    unchanged slow path (composing with the vcache), so denies are
    byte-identical with the memo on or off.

    Counters/gauges are published in the registry passed at creation:
    [precomp.hits], [precomp.misses], [precomp.fallbacks],
    [precomp.compiles], [precomp.cycles_saved]. *)

type t

val create : key:Asc_crypto.Cmac.key -> registry:Asc_obs.Metrics.registry -> unit -> t
(** [key] is ignored: a memo hit compares tags and computes no MAC. *)

(** What {!check} proved, and what the checker should charge: [Hit]
    means the call MAC is verified (charge
    [Svm.Cost_model.precomp_hit_cost suffix_len], where [suffix_len] is
    the encoded length past {!Encoded.static_prefix_len}); [Fallback]
    means nothing was proved and nothing was charged — run the slow path —
    and says why, in the telemetry plane's words: [F_no_entry] (the row
    has no memo), [F_statics] (number, site, descriptor or block id
    differ from the memo's) or [F_tag] (a dynamic field or the supplied
    tag differs). *)
type verdict =
  | Hit of { suffix_len : int; encoded_len : int }
  | Fallback of Asc_obs.Telemetry.fallback

val check : t -> Sitetab.row -> call:Encoded.t -> supplied:string -> verdict

val compile : t -> Sitetab.row -> call:Encoded.t -> encoded:string -> mac:string -> unit
(** Compile the row's memo from a verification that just succeeded on the
    slow path: [encoded] = [Encoded.encode call], [mac] = the supplied tag
    that matched, stored by {!Sitetab.set_memo}. Never call this on a
    failed comparison. *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (slow-path MAC
    cost minus the fast-path charge, accounted by the checker). *)
