(** Per-pid, site-indexed memo of verified calls — the exec-time fast
    path in front of the call-MAC check.

    The vcache ({!Vcache}) removes repeated CMAC computations but still
    pays, on every trap, for serializing the encoded call and hashing it
    as the cache key. This table moves that work to (at most) once per
    call site: the pid's table is created when the image is established
    ([Proc_spawn]/[Proc_exec]), and the first successful slow-path
    verification at a site {e compiles} an entry holding the verified call,
    its supplied tag and its encoded length.

    On later traps {!check} compares the live call with the memo: when the
    structural statics (number, site, descriptor, block id), every dynamic
    field and the supplied tag all equal the memo, the verification is the
    same byte string as the compiled one and needs no MAC work at all.
    Anything else — no entry, a structural or dynamic-field mismatch, a
    tag mismatch — is a {!constructor-Fallback}: the caller runs the
    unchanged slow path (composing with the vcache), so denies are
    byte-identical with the table on or off. Entries are only ever created
    from successful verifications, and the first one at a site stays
    until the pid's image goes away.

    Counters/gauges are published in the registry passed at creation:
    [precomp.hits], [precomp.misses], [precomp.fallbacks],
    [precomp.compiles], [precomp.invalidations], [precomp.size],
    [precomp.cycles_saved]. *)

type t

val create :
  ?max_sites:int -> key:Asc_crypto.Cmac.key -> registry:Asc_obs.Metrics.registry -> unit -> t
(** [max_sites] (default 4096, must be ≥ 1) bounds the compiled entries
    per pid; sites beyond the bound simply keep taking the slow path.
    [key] is ignored: a memo hit compares tags and computes no MAC. *)

(** Why a compiled entry declined to decide — surfaced so the telemetry
    plane can distinguish "the site's structure changed" from "the tag
    didn't verify" in its fallback rollups. *)
type fallback_cause =
  | Statics_mismatch  (** number/site/descriptor/block differ from the
                          compiled statics *)
  | Tag_mismatch      (** a dynamic field or the supplied tag differs
                          from the memo *)

(** What {!check} proved, and what the checker should charge: [Hit]
    means the call MAC is verified (charge
    [Svm.Cost_model.precomp_hit_cost suffix_len], where [suffix_len] is
    the encoded length past {!Encoded.static_prefix_len});
    [Miss]/[Fallback] mean nothing was proved and nothing was charged —
    run the slow path. *)
type verdict =
  | Miss       (** no compiled entry for (pid, site) *)
  | Hit of { suffix_len : int; encoded_len : int }
  | Fallback of fallback_cause
      (** structural or tag mismatch — slow path decides *)

val check : t -> pid:int -> call:Encoded.t -> supplied:string -> verdict

val compile : t -> pid:int -> call:Encoded.t -> encoded:string -> mac:string -> unit
(** Compile a site entry from a verification that just succeeded on the
    slow path: [encoded] = [Encoded.encode call], [mac] = the supplied tag
    that matched. First writer wins; bounded by [max_sites]. Never call
    this on a failed comparison. *)

val prepare_pid : t -> int -> unit
(** Establish a fresh, empty site table for [pid], dropping anything an
    earlier image compiled — called on [Proc_spawn] and [Proc_exec]. *)

val invalidate_pid : t -> int -> unit
(** Drop every entry owned by [pid] — called on process teardown. *)

val clear : t -> unit
(** Drop everything (counted as invalidations). *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (slow-path MAC
    cost minus the fast-path charge, accounted by the checker). *)

val max_sites : t -> int
val size : t -> int
val hits : t -> int
val misses : t -> int
val fallbacks : t -> int
val compiles : t -> int
val invalidations : t -> int
val cycles_saved : t -> int
