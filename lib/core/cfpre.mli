(** Site-indexed precompiled control-flow policy — predecessor bitsets
    plus the per-pid lbMAC chain step, the exec-time fast path in front of
    the checker's step 3.

    - The predecessor set is {e content-stable}: its bytes and tag are
      fixed at install time, so the first successful slow-path
      verification at a site {!compile}s them into the bitset half of the
      site's {!Sitetab.row}, and the steady-state membership check becomes
      one load+test. {!check} accepts the bitset only when the live
      reference {e and} the live guest bytes equal the compiled ones;
      anything else falls back to the untouched slow path, so denies are
      byte-identical with the bitsets on or off.
    - The policy state is exactly one complete CMAC block, so with the
      pid's chain scratch ({!Sitetab.scratch}) each lbMAC refresh is a
      single AES invocation ({!Asc_crypto.Cmac.mac_block_into}) instead
      of a from-scratch MAC — the nonce counter still changes every call
      and the tag is still computed fresh (§3.4's freshness guarantee is
      untouched); only setup and allocation are amortized.

    Counters/gauges are published in the registry passed at creation:
    [cfpre.hits], [cfpre.misses], [cfpre.fallbacks], [cfpre.compiles],
    [cfpre.cycles_saved]. *)

type t

val create : registry:Asc_obs.Metrics.registry -> unit -> t

val block_limit : int
(** 65536: the {e span} of block ids a bitset may represent. Block ids are
    globally unique (program id in the high bits), so each bitset is
    offset from its set's smallest id and only [max - min + 1] must stay
    dense. A verified set spanning beyond it is never compiled and its
    site keeps taking the slow path. *)

(** What {!check} proved: [Hit] means the live predecessor set is
    byte-identical to the slow-path-verified one — charge
    [Svm.Cost_model.cfpre_hit_cost] and decide membership with
    {!member}; [Fallback] means nothing was proved and nothing was
    charged — the slow path re-verifies from the live bytes and decides,
    including the deny — and says why, as step 3's telemetry resolution:
    [Cf_slow] (the row has no bitset), [Cf_fallback_ref] (the live (addr,
    len, tag) reference differs from the compiled one) or
    [Cf_fallback_contents] (the reference matches but the guest bytes
    moved out from under it). *)
type verdict =
  | Hit of Sitetab.preds
  | Fallback of Asc_obs.Telemetry.cf_reason

val check : t -> m:Svm.Machine.t -> Sitetab.row -> pred_ref:Encoded.as_ref -> verdict
(** Allocation-light probe (the [Hit] block, no byte copies): a
    structural compare of the compiled reference and an allocation-free
    compare of the live guest bytes against the compiled contents. *)

val compile : t -> Sitetab.row -> pred_ref:Encoded.as_ref -> contents:string -> unit
(** Compile the row's bitset from a predecessor set that just verified on
    the slow path: [contents] are the bytes [pred_ref.as_mac] was checked
    against, stored by {!Sitetab.set_preds}. Declined (the site stays on
    the slow path) when the set is malformed or spans more than
    {!block_limit} ids. Never call this on a failed verification. *)

val member : Sitetab.preds -> int -> bool
(** One load+test: equals [Encoded.predset_mem contents bid] for every
    [bid], by construction of the bitset. *)

val state_into : Sitetab.scratch -> counter:int -> last_block:int -> unit
(** Serialize the policy state [u64 counter || u64 lastBlock] (LE) into
    [ps_state] — the allocation-free counterpart of
    [Encoded.state_bytes]. *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (slow-path cost
    minus the fast-path charge, accounted by the checker). *)
