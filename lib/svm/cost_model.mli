(** Deterministic cycle-cost model.

    The paper measures CPU cycles with the Pentium [rdtsc] instruction. Our
    substitute is a deterministic model: the machine charges each instruction
    a fixed cost, and the simulated kernel charges trap entry, per-byte copy
    and per-AES-block costs. Constants are calibrated so the *shape* of
    Table 4 holds: an unmodified trivial system call (getpid) costs ≈1100
    cycles, and full authenticated-call verification adds ≈4000 cycles. *)

val instr_cost : Isa.instr -> int
(** Cost charged by the machine for one executed instruction. *)

val rdcyc_cost : int
(** Extra cost of reading the cycle counter (the paper reports an rdtsc cost
    of 84 cycles). *)

val trap_entry : int
(** Kernel trap entry + return (mode switch, register save/restore). *)

val syscall_dispatch : int
(** Base cost of syscall-number dispatch inside the trap handler. *)

val per_byte_copy : int
(** Cost per byte of copying between user and kernel space (numerator of a
    fixed-point ratio with {!per_byte_copy_denom}). *)

val per_byte_copy_denom : int

val write_buffer_per_byte : int
(** Additional per-byte cost on the write path (buffer-cache bookkeeping
    dominates writes in the paper's Table 4). *)

val aes_block : int
(** Cost of one AES block operation inside the kernel's MAC computation. *)

val mac_setup : int
(** Fixed cost of one MAC computation (subkey selection, finalization). *)

val check_fixed : int
(** Fixed bookkeeping cost of the authenticated-call check (argument fetch,
    policy-descriptor decoding, control-flow set membership). *)

val context_switch : int
(** Cost of one context switch; used by the user-space-daemon ablation (the
    Systrace-style monitor pays two of these per checked call). *)

val vcache_hit_base : int
(** Fixed cost of a verified-MAC cache hit: hash of the key material plus
    the bucket probe. *)

val vcache_hit_per_block : int
(** Per-16-byte-block cost of confirming a cache hit (the kernel compares
    the stored key bytes against the bytes the MAC covers, so a hit is
    never cheaper than reading its own key). *)

val precomp_lookup_cost : int
(** Fixed cost of probing the per-pid site-indexed precompiled-policy
    table on a trap: direct site index plus the structural compare of the
    static fields (number/descriptor/block) against the entry. Cheaper
    than {!vcache_hit_base} because no key material is hashed — the site
    id indexes the table directly. *)

val precomp_hit_per_block : int
(** Per-16-byte-block cost of confirming a precomp memo hit: the kernel
    compares only the dynamic-suffix words it just read from registers /
    guest memory against the entry's remembered values (the static prefix
    was already pinned by the structural compare). *)

val cfpre_lookup_cost : int
(** Fixed cost of probing the per-pid control-flow bitset table on a trap:
    the site id indexes the table directly and the entry's compiled
    predecessor reference is compared structurally (addr/len/tag) — no key
    material is hashed and no MAC state is touched, so the base sits well
    below even {!precomp_lookup_cost}. *)

val cfpre_hit_per_block : int
(** Per-16-byte-block cost of confirming a bitset hit: the kernel compares
    the live predecessor-set bytes it can already address against the
    compiled contents (a hit is never cheaper than reading its own set),
    then the membership test itself is one load+test in the bitset. *)

val lbmac_chain_cost : int
(** Cost of one step of the amortized lbMAC nonce chain: the policy-state
    block is exactly one complete 16-byte CMAC block, so with the per-pid
    chain state armed at exec time (subkeys scheduled, scratch resident)
    each refresh is a single AES invocation — [aes_block] — instead of a
    full {!mac_cost}[ 16] ([mac_setup] is paid once per pid, not per
    call). The MAC itself is still computed fresh on every call (the §3.4
    nonce-freshness guarantee is untouched); only the modeled setup charge
    is amortized. *)

val telemetry_record_cost : int
(** Per-monitored-call cost of the telemetry plane's shard update (reason
    bump, histogram observe, ledger ring push — all O(1), no hashing of
    call bytes). Charged by the checker on every recorded call and
    credited to the plane's self-overhead meter, which the
    [BENCH_telemetry] gate bounds below 1% of total verification
    cycles. *)

val mac_cost : int -> int
(** [mac_cost len] is the modeled cost of MACing [len] bytes:
    [mac_setup + aes_block * ceil((len+1)/16)] (+1 for padding block). *)

val copy_cost : int -> int
(** [copy_cost len] is the modeled user/kernel copy cost for [len] bytes. *)

val vcache_hit_cost : int -> int
(** [vcache_hit_cost len] is the modeled cost of a verified-MAC cache hit
    whose key covers [len] bytes:
    [vcache_hit_base + vcache_hit_per_block * ceil((len+1)/16)]. Strictly
    below {!mac_cost} for every length (the base and per-block constants
    are both smaller), so skipping a MAC via the cache always saves
    cycles. *)

val precomp_hit_cost : int -> int
(** [precomp_hit_cost slen] is the modeled cost of a precompiled-site memo
    hit whose dynamic suffix is [slen] bytes:
    [precomp_lookup_cost + precomp_hit_per_block * ceil((slen+1)/16)].
    Strictly below {!vcache_hit_cost} of the whole encoded call for every
    layout: the suffix is one block shorter than the encoded string and
    the lookup base is 30 below the vcache's hash-and-probe base — the
    precomp-beats-vcache gate the table4 benchmark enforces. *)

val cfpre_hit_cost : int -> int
(** [cfpre_hit_cost len] is the modeled cost of a control-flow bitset hit
    whose compiled predecessor set is [len] bytes:
    [cfpre_lookup_cost + cfpre_hit_per_block * ceil((len+1)/16)]. Strictly
    below {!vcache_hit_cost} for every length (both constants are
    smaller), so the bitset path always beats re-verifying the set through
    the verified-MAC cache — the gate the table4 benchmark enforces. *)

