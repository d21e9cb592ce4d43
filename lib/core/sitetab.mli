(** The exec-time fast paths' one per-(pid, site) table. A row holds the
    call memo step 1 checks ({!Precomp}) and the predecessor bitset step 3
    checks ({!Cfpre}); the checker looks a trap's row up once and hands it
    to both steps. Each half is written only through {!set_memo} and
    {!set_preds}, by its layer's [compile] from a verification that just
    succeeded on the slow path, and the first one written at a site stays
    until {!drop_pid}, which the checker's lifecycle hook calls on
    [execve] and teardown. Pids are never reused, so a pid's rows need no
    setup.

    Published in the registry passed at creation: [sitetab.size] (rows
    kept) and [sitetab.invalidations] (rows dropped). *)

(** Step 1's half: a verified call, its supplied (= verified) tag and its
    encoded length. *)
type memo = {
  m_call : Encoded.t;
  m_mac : string;
  m_len : int;
}

(** Step 3's half: the verified predecessor-set reference, the bytes its
    tag covers, and the bitset built from them — bit [b - p_base] set iff
    block [b] is in the set, for ids in [\[p_base, p_base + p_span)]. *)
type preds = {
  p_ref : Encoded.as_ref;
  p_contents : string;
  p_bits : Bytes.t;
  p_base : int;
  p_span : int;
}

(** The pid's 16-byte buffers for the single-block lbMAC chain: the
    policy-state block, the freshly computed tag, and the tag read back
    from guest memory. *)
type scratch = {
  ps_state : Bytes.t;
  ps_tag : Bytes.t;
  ps_read : Bytes.t;
}

type row = private {
  mutable memo : memo option;
  mutable preds : preds option;
  scratch : scratch;  (** the pid's, shared by its rows *)
  kept : bool;        (** [false] past {!max_sites}: never written *)
}

type t

val max_sites : int
(** Rows kept per pid: 4096. A site past the bound keeps taking the slow
    path. *)

val create : registry:Asc_obs.Metrics.registry -> unit -> t

val find : t -> pid:int -> site:int -> row
(** The pid's row for [site], added empty on the pid's first trap there.
    Allocates nothing once the row exists. Past {!max_sites} each lookup
    of a new site returns a fresh row that is not kept. *)

val set_memo : row -> memo -> bool
(** Store step 1's half, unless the row already holds one or is not kept.
    Returns whether it stored. *)

val set_preds : row -> preds -> bool
(** Store step 3's half, under the same rule as {!set_memo}. *)

val drop_pid : t -> int -> unit
(** Forget every row of [pid] and its scratch, counted as invalidations. *)
