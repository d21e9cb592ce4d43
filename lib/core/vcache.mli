(** Bounded LRU cache of successful MAC verifications — the kernel-side
    fast path that lets a hot loop calling the same site with the same
    constant arguments skip recomputing AES-CMAC on every trap.

    {b Soundness rule}: a hit is only legal when the cache key covers
    every byte the MAC computation covered. The two key forms enforce
    this by construction:

    - {!constructor-Call}[ { pid; site; encoded }] carries the {e complete}
      encoded call ({!Encoded.encode}'s output: trap number, site,
      descriptor, block id, constant arguments, authenticated-string
      references including their tags, extension and control references) —
      exactly the bytes the call MAC is computed over;
    - {!constructor-Str}[ { pid; bytes }] carries the full contents of an
      authenticated string (argument string, predecessor set or extension
      block) — exactly the bytes its tag covers.

    Together with the supplied 16-byte tag, an entry asserts
    "CMAC(k, bytes) = tag was verified before". Any tampered descriptor,
    argument, string or tag changes the key, misses, and takes the slow
    path to the same structured deny — so denials are byte-identical with
    the cache on or off. The control-flow [lbMAC] is nonce-fresh (the
    kernel-held counter changes every call) and is {e never} cached.

    The [pid] in both key forms is not needed for MAC soundness (the tag
    does not depend on it) but provides lifecycle isolation: entries are
    invalidated wholesale on [execve], so a new image never observes its
    predecessor's warm cache, and on process teardown
    ({!invalidate_pid}, driven by the checker's lifecycle hook).

    Only successful verifications are remembered. Hit/miss/eviction
    counters, a size gauge and a cycles-saved gauge are published into the
    registry passed at creation ([vcache.hits], [vcache.misses],
    [vcache.evictions], [vcache.invalidations], [vcache.size],
    [vcache.cycles_saved]). *)

type key =
  | Call of { pid : int; site : int; encoded : string }
      (** call-MAC check: [encoded] is the full rebuilt encoded call *)
  | Str of { pid : int; bytes : string }
      (** authenticated-string check: [bytes] is the full string contents *)

type t

val create : ?capacity:int -> registry:Asc_obs.Metrics.registry -> unit -> t
(** Bounded LRU holding at most [capacity] (default 1024, must be ≥ 1)
    verified entries; counters/gauges are registered in [registry]
    (typically the owning kernel's). *)

val check : t -> key -> mac:string -> bool
(** [check t key ~mac] is [true] iff [(key, mac)] was previously
    {!remember}ed (and not evicted or invalidated since). Bumps the entry
    to most-recently-used and the hit/miss counters either way. *)

val remember : t -> key -> mac:string -> unit
(** Record a verification that just succeeded on the slow path, evicting
    the least-recently-used entry when full. Never call this on a failed
    comparison. *)

val note_saved : t -> int -> unit
(** Credit [n] modeled cycles to the cycles-saved gauge (the slow-path
    MAC cost minus the hit cost, accounted by the checker on each hit). *)

val invalidate_pid : t -> int -> unit
(** Drop every entry owned by [pid] — called on [execve] (the image the
    entries were verified against is gone) and on process teardown. *)
