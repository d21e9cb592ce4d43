(** Kernel-side system-call checking (§3.4) — the counterpart of the 248
    lines the paper adds to the Linux software trap handler.

    On every trap the checker: (1) rebuilds the *encoded call* from the
    call's actual behavior — trap number, trap site, the five extra
    arguments in r7–r11, and the constrained argument registers — and
    compares its MAC against the call MAC supplied by the application;
    (2) verifies the contents of every authenticated-string argument
    (including the predecessor set and any §5 extension block);
    (3) verifies and updates the control-flow policy state using the online
    memory checker: [lbMAC = MAC(counter ++ lastBlock)] with the nonce
    counter held in kernel memory ({!Oskernel.Process.t}'s [counter]).

    Any failure terminates the process with a structured
    [Kernel.Deny_violation] naming the failing step
    ({!Oskernel.Violation.step}) and, for MAC comparisons, hex prefixes of
    the expected and supplied tags; unauthenticated calls (descriptor
    marker absent) are likewise blocked. The checker charges
    the modeled verification cycles ({!Svm.Cost_model}) to the machine, so
    the Table 4/6 benchmarks reflect its cost.

    Every charged cycle is also attributed to exactly one per-step counter
    in the kernel's metrics registry — [checker.cycles.call_mac],
    [checker.cycles.string_mac], [checker.cycles.control_flow] and
    [checker.cycles.ext] — alongside [checker.cycles.total] and
    [checker.calls_verified], so the per-step breakdown always sums to the
    modeled total (the Table 4 decomposition).

    Every monitored call additionally records exactly one
    {!Asc_obs.Telemetry.reason} code — how its call MAC was resolved
    (precomp hit, precomp fallback by cause, vcache hit, slow
    path) or which step denied it — into the kernel's telemetry plane
    ({!Oskernel.Kernel.telemetry}), together with the call's verification
    cycles (the [checker.cycles.total] delta). The recording itself
    charges [Svm.Cost_model.telemetry_record_cost] to the machine,
    credited to the plane's self-overhead meter but {e not} to the
    checker's step counters, so the Table 4 decomposition stays
    verification-only. *)

val monitor :
  kernel:Oskernel.Kernel.t ->
  key:Asc_crypto.Cmac.key ->
  ?normalize_paths:bool ->
  ?vcache:Vcache.t ->
  ?precomp:Precomp.t ->
  ?cfpre:Cfpre.t ->
  unit ->
  Oskernel.Kernel.monitor
(** [normalize_paths] additionally resolves every verified pathname
    argument through the VFS and denies the call when normalization
    changes it (the §5.4 symlink-race defense). Default [false].

    [vcache] attaches a verified-MAC cache ({!Vcache}): call-MAC and
    authenticated-string checks that hit it are charged
    [Svm.Cost_model.vcache_hit_cost] instead of the CMAC cost (still on
    the same per-step counter, so the decomposition keeps summing), while
    misses — including every tampered descriptor, string or tag, whose
    key cannot match — take the unchanged slow path to the same
    structured deny. The nonce-fresh control-flow [lbMAC] is always
    verified. Default: no cache (every check recomputes, the pre-cache
    behavior).

    [precomp] attaches the call memo ({!Precomp}), the fast path {e in
    front of} step 1: a site's memo is compiled from its first successful
    slow-path verification, and later traps that equal it are charged
    [Svm.Cost_model.precomp_hit_cost] on the call-MAC counter without
    serializing the encoded call at all. Misses and mismatches charge
    nothing and run the unchanged slow path (composing with [vcache]), so
    denies are byte-identical with the memo on or off. Default: none.

    [cfpre] attaches the control-flow bitsets ({!Cfpre}): a site whose
    live predecessor-set reference and bytes equal the slow-path-verified
    ones decides the predecessor check with one load+test and updates the
    lbMAC with single-block CMACs against per-pid scratch; anything else
    takes the unchanged slow path. Default: none.

    With either of [precomp] and [cfpre] armed, the monitor keeps one
    {!Sitetab} (publishing [sitetab.*] in [kernel]'s registry): each trap
    looks its (pid, site) row up once and hands it to steps 1 and 3. The
    monitor registers one kernel lifecycle hook, which on [execve] and
    process teardown drops the pid's vcache entries and rows.

    Tools run {!deployment}; the layers are separately optional so that
    tests and the table4 ablation can compare each against the slow
    path. *)

val deployment :
  kernel:Oskernel.Kernel.t ->
  key:Asc_crypto.Cmac.key ->
  ?normalize_paths:bool ->
  unit ->
  Oskernel.Kernel.monitor
(** The one configuration the tools run: {!monitor} with a {!Vcache} of
    default capacity, the {!Precomp} memo and the {!Cfpre} bitsets all
    armed, publishing their counters and the site table's in [kernel]'s
    metrics registry ([vcache.*], [precomp.*], [cfpre.*], [sitetab.*]). *)

(** The fast-path layers, in the order they stack on the slow path. *)
type layer =
  | Vcache
  | Precomp
  | Cfpre

val layer_name : layer -> string
(** ["vcache"], ["precomp"], ["cfpre"]: the prefix under which the layer
    publishes its counters and gauges. *)

val fast_path_counters : Asc_obs.Metrics.registry -> (string * (string * int) list) list
(** Every counter and gauge the armed layers publish in [registry],
    grouped by layer in stacking order and then the ["sitetab"] group of
    their shared table, as [(group, [(field, value); ...])] with fields
    sorted by name ([hits] for [vcache.hits]). A group that nothing
    registered is absent. *)

(** {1 Fault injection} — regression-attribution test support. *)

val set_cost_injection : step:string -> pct:int -> unit
(** Inflate every cycle charge to the named checker step
    ([call_mac], [string_mac], [control_flow] or [ext]) by [pct] percent
    — through the machine's cycle counter, the per-step metrics and the
    profiler alike, so the decomposition invariants keep holding while
    the numbers move. This exists to prove the attribution pipeline:
    bench's [--inject-step-cost] uses it to trip the table4 gate
    deliberately and assert the failure names the step and site.
    @raise Invalid_argument on an unknown step name or [pct < 0]. *)

val clear_cost_injection : unit -> unit
