(* Bounded LRU cache of *successful* MAC verifications.

   Soundness rests on the key: an entry is (key material, supplied MAC)
   where the key material contains every byte the MAC computation covered
   — the full encoded call for call MACs, the full contents for
   authenticated strings — plus the owning pid for lifecycle isolation.
   A hit therefore proves "CMAC(k, bytes) = mac was checked before for
   exactly these bytes", so replaying the comparison is redundant; any
   tampering with the covered bytes or the tag changes the key and misses.
   Only successful verifications are remembered: the deny path always
   recomputes, so denials are byte-identical with the cache on or off. *)

type key =
  | Call of { pid : int; site : int; encoded : string }
  | Str of { pid : int; bytes : string }

type entry = {
  e_key : key;
  e_mac : string;
}

(* intrusive doubly-linked LRU list; head = most recently used *)
type node = {
  n_entry : entry;
  mutable n_prev : node option;
  mutable n_next : node option;
}

type t = {
  capacity : int;
  tbl : (entry, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_evictions : Asc_obs.Metrics.counter;
  ctr_invalidations : Asc_obs.Metrics.counter;
  g_size : Asc_obs.Metrics.gauge;
  g_saved : Asc_obs.Metrics.gauge;
}

let create ?(capacity = 1024) ~registry () =
  if capacity < 1 then invalid_arg "Vcache.create: capacity must be >= 1";
  { capacity;
    tbl = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    ctr_hits = Asc_obs.Metrics.counter registry "vcache.hits" ~help:"verified-MAC cache hits";
    ctr_misses = Asc_obs.Metrics.counter registry "vcache.misses";
    ctr_evictions = Asc_obs.Metrics.counter registry "vcache.evictions";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "vcache.invalidations"
        ~help:"entries dropped on execve / process teardown";
    g_size = Asc_obs.Metrics.gauge registry "vcache.size";
    g_saved =
      Asc_obs.Metrics.gauge registry "vcache.cycles_saved"
        ~help:"modeled CMAC cycles skipped by cache hits" }

let unlink t n =
  (match n.n_prev with Some p -> p.n_next <- n.n_next | None -> t.head <- n.n_next);
  (match n.n_next with Some s -> s.n_prev <- n.n_prev | None -> t.tail <- n.n_prev);
  n.n_prev <- None;
  n.n_next <- None

let push_front t n =
  n.n_next <- t.head;
  (match t.head with Some h -> h.n_prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let set_size t = Asc_obs.Metrics.set t.g_size (Hashtbl.length t.tbl)

let check t key ~mac =
  match Hashtbl.find_opt t.tbl { e_key = key; e_mac = mac } with
  | Some n ->
    unlink t n;
    push_front t n;
    Asc_obs.Metrics.inc t.ctr_hits;
    true
  | None ->
    Asc_obs.Metrics.inc t.ctr_misses;
    false

let remember t key ~mac =
  let e = { e_key = key; e_mac = mac } in
  if not (Hashtbl.mem t.tbl e) then begin
    if Hashtbl.length t.tbl >= t.capacity then begin
      match t.tail with
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.tbl lru.n_entry;
        Asc_obs.Metrics.inc t.ctr_evictions
      | None -> ()
    end;
    let n = { n_entry = e; n_prev = None; n_next = None } in
    push_front t n;
    Hashtbl.replace t.tbl e n;
    set_size t
  end

let note_saved t n = Asc_obs.Metrics.set t.g_saved (Asc_obs.Metrics.gauge_value t.g_saved + n)

let pid_of = function
  | Call { pid; _ } -> pid
  | Str { pid; _ } -> pid

let invalidate_pid t pid =
  let doomed =
    Hashtbl.fold
      (fun e n acc -> if pid_of e.e_key = pid then (e, n) :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun (e, n) ->
      unlink t n;
      Hashtbl.remove t.tbl e;
      Asc_obs.Metrics.inc t.ctr_invalidations)
    doomed;
  set_size t
