(* Per-pid, site-indexed memo of verified calls.

   Soundness rests on what a compiled entry asserts. An entry is only
   created from a verification that just succeeded on the slow path, so it
   pins one call C with CMAC(key, encode C) = supplied tag T. A later trap
   whose rebuilt call equals C structurally and whose supplied tag equals T
   is the same verification, byte for byte, and must succeed again.
   Anything else — no entry, different statics, different dynamic fields or
   a different tag — falls back to the untouched slow path, so denies are
   byte-identical with the table on or off (nothing is ever remembered from
   a failed verification). *)

type entry = {
  pe_call : Encoded.t;  (* the verified call at this site (memo) *)
  pe_mac : string;      (* its supplied = verified tag *)
  pe_len : int;         (* its encoded length (descriptor-fixed) *)
}

type t = {
  max_sites : int;                (* per-pid bound on compiled entries *)
  tbl : (int, (int, entry) Hashtbl.t) Hashtbl.t;  (* pid -> site -> entry *)
  mutable hits : int;
  mutable misses : int;
  mutable fallbacks : int;
  mutable compiles : int;
  mutable invalidations : int;
  mutable saved : int;
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_fallbacks : Asc_obs.Metrics.counter;
  ctr_compiles : Asc_obs.Metrics.counter;
  ctr_invalidations : Asc_obs.Metrics.counter;
  g_size : Asc_obs.Metrics.gauge;
  g_saved : Asc_obs.Metrics.gauge;
}

type fallback_cause =
  | Statics_mismatch
  | Tag_mismatch

type verdict =
  | Miss
  | Hit of { suffix_len : int; encoded_len : int }
  | Fallback of fallback_cause

let create ?(max_sites = 4096) ~key:_ ~registry () =
  if max_sites < 1 then invalid_arg "Precomp.create: max_sites must be >= 1";
  { max_sites;
    tbl = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    fallbacks = 0;
    compiles = 0;
    invalidations = 0;
    saved = 0;
    ctr_hits =
      Asc_obs.Metrics.counter registry "precomp.hits" ~help:"precompiled-site memo hits";
    ctr_misses = Asc_obs.Metrics.counter registry "precomp.misses";
    ctr_fallbacks =
      Asc_obs.Metrics.counter registry "precomp.fallbacks"
        ~help:"structural or tag mismatches sent to the slow path";
    ctr_compiles = Asc_obs.Metrics.counter registry "precomp.compiles";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "precomp.invalidations"
        ~help:"entries dropped on spawn / execve / process teardown";
    g_size = Asc_obs.Metrics.gauge registry "precomp.size";
    g_saved =
      Asc_obs.Metrics.gauge registry "precomp.cycles_saved"
        ~help:"modeled CMAC cycles skipped by the precompiled fast path" }

let max_sites t = t.max_sites
let hits t = t.hits
let misses t = t.misses
let fallbacks t = t.fallbacks
let compiles t = t.compiles
let invalidations t = t.invalidations
let cycles_saved t = t.saved

let size t = Hashtbl.fold (fun _ sites acc -> acc + Hashtbl.length sites) t.tbl 0
let set_size t = Asc_obs.Metrics.set t.g_size (size t)

let note_saved t n =
  t.saved <- t.saved + n;
  Asc_obs.Metrics.set t.g_saved t.saved

let drop_pid_entries t pid =
  match Hashtbl.find_opt t.tbl pid with
  | None -> ()
  | Some sites ->
    let n = Hashtbl.length sites in
    Hashtbl.remove t.tbl pid;
    if n > 0 then begin
      t.invalidations <- t.invalidations + n;
      Asc_obs.Metrics.add t.ctr_invalidations n
    end;
    set_size t

(* exec-time table creation: drop whatever an earlier image compiled for
   this pid and start it with a fresh, empty site index *)
let prepare_pid t pid =
  drop_pid_entries t pid;
  Hashtbl.replace t.tbl pid (Hashtbl.create 16)

let invalidate_pid t pid = drop_pid_entries t pid

let clear t =
  let n = size t in
  Hashtbl.reset t.tbl;
  if n > 0 then begin
    t.invalidations <- t.invalidations + n;
    Asc_obs.Metrics.add t.ctr_invalidations n
  end;
  set_size t

let statics_match entry (call : Encoded.t) =
  let e = entry.pe_call in
  e.Encoded.e_number = call.Encoded.e_number
  && e.Encoded.e_site = call.Encoded.e_site
  && e.Encoded.e_descriptor = call.Encoded.e_descriptor
  && e.Encoded.e_block = call.Encoded.e_block

let check t ~pid ~(call : Encoded.t) ~supplied =
  let entry =
    match Hashtbl.find_opt t.tbl pid with
    | None -> None
    | Some sites -> Hashtbl.find_opt sites call.Encoded.e_site
  in
  match entry with
  | None ->
    t.misses <- t.misses + 1;
    Asc_obs.Metrics.inc t.ctr_misses;
    Miss
  | Some e when not (statics_match e call) ->
    t.fallbacks <- t.fallbacks + 1;
    Asc_obs.Metrics.inc t.ctr_fallbacks;
    Fallback Statics_mismatch
  | Some e when call = e.pe_call && Asc_crypto.Cmac.equal_tags e.pe_mac supplied ->
    t.hits <- t.hits + 1;
    Asc_obs.Metrics.inc t.ctr_hits;
    Hit { suffix_len = e.pe_len - Encoded.static_prefix_len; encoded_len = e.pe_len }
  | Some _ ->
    t.fallbacks <- t.fallbacks + 1;
    Asc_obs.Metrics.inc t.ctr_fallbacks;
    Fallback Tag_mismatch

let compile t ~pid ~(call : Encoded.t) ~encoded ~mac =
  let len = String.length encoded in
  if len > Encoded.static_prefix_len then begin
    let sites =
      match Hashtbl.find_opt t.tbl pid with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 16 in
        Hashtbl.replace t.tbl pid s;
        s
    in
    if (not (Hashtbl.mem sites call.Encoded.e_site)) && Hashtbl.length sites < t.max_sites
    then begin
      Hashtbl.replace sites call.Encoded.e_site { pe_call = call; pe_mac = mac; pe_len = len };
      t.compiles <- t.compiles + 1;
      Asc_obs.Metrics.inc t.ctr_compiles;
      set_size t
    end
  end
