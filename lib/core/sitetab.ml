(* One row per (pid, site) for the exec-time fast paths. What a row's
   halves assert, and why a hit on them is sound, is argued where they are
   checked and compiled: Precomp for the call memo, Cfpre for the
   predecessor bitset. *)

type memo = {
  m_call : Encoded.t;
  m_mac : string;
  m_len : int;
}

type preds = {
  p_ref : Encoded.as_ref;
  p_contents : string;
  p_bits : Bytes.t;
  p_base : int;
  p_span : int;
}

type scratch = {
  ps_state : Bytes.t;  (* 16 B: u64 counter || u64 lastBlock (LE) *)
  ps_tag : Bytes.t;    (* 16 B: the freshly computed lbMAC *)
  ps_read : Bytes.t;   (* 16 B: the lbMAC read back from guest memory *)
}

type row = {
  mutable memo : memo option;
  mutable preds : preds option;
  scratch : scratch;
  kept : bool;
}

type per_pid = {
  rows : (int, row) Hashtbl.t;
  pid_scratch : scratch;
}

type t = {
  pids : (int, per_pid) Hashtbl.t;
  g_size : Asc_obs.Metrics.gauge;
  ctr_invalidations : Asc_obs.Metrics.counter;
}

let max_sites = 4096

let create ~registry () =
  { pids = Hashtbl.create 16;
    g_size = Asc_obs.Metrics.gauge registry "sitetab.size" ~help:"fast-path rows kept";
    ctr_invalidations =
      Asc_obs.Metrics.counter registry "sitetab.invalidations"
        ~help:"fast-path rows dropped on execve / process teardown" }

let resize t n = Asc_obs.Metrics.set t.g_size (Asc_obs.Metrics.gauge_value t.g_size + n)

let add_row t pp site =
  let kept = Hashtbl.length pp.rows < max_sites in
  let row = { memo = None; preds = None; scratch = pp.pid_scratch; kept } in
  if kept then begin
    Hashtbl.replace pp.rows site row;
    resize t 1
  end;
  row

(* exception-style lookups: the steady-state trap allocates nothing here *)
let find t ~pid ~site =
  match Hashtbl.find t.pids pid with
  | pp -> (
    match Hashtbl.find pp.rows site with
    | row -> row
    | exception Not_found -> add_row t pp site)
  | exception Not_found ->
    let pid_scratch =
      { ps_state = Bytes.create 16; ps_tag = Bytes.create 16; ps_read = Bytes.create 16 }
    in
    let pp = { rows = Hashtbl.create 16; pid_scratch } in
    Hashtbl.replace t.pids pid pp;
    add_row t pp site

(* the first writer of a half wins *)
let set_memo row memo =
  let store = row.kept && Option.is_none row.memo in
  if store then row.memo <- Some memo;
  store

let set_preds row preds =
  let store = row.kept && Option.is_none row.preds in
  if store then row.preds <- Some preds;
  store

let drop_pid t pid =
  match Hashtbl.find_opt t.pids pid with
  | None -> ()
  | Some pp ->
    let n = Hashtbl.length pp.rows in
    Hashtbl.remove t.pids pid;
    Asc_obs.Metrics.add t.ctr_invalidations n;
    resize t (-n)
