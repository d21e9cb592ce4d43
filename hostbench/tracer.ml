(* Host-time spans recorded from outside the system, at each layer boundary
   the benchmark can see: op -> install / spawn / run -> per-trap checker,
   dispatch and deny. Every span has an id, its parent's id and the id of
   its op. Totals and self times are kept for every span, and span counts
   for every op; the individual
   spans of the first ops are kept in memory (bounded) and written out as
   Chrome trace JSON at the end. *)

(* Spans use the monotonic clock: it is cheap enough to read around every
   trap. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID), for op-level
   timings. *)
external cpu_ns : unit -> int = "hostbench_thread_cpu_ns" [@@noalloc]

type total = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

(* what the spans of one op counted *)
type op_count = { o_checker : int; o_dispatch : int; o_deny : int }

type frame = { f_id : int; f_t0 : int; mutable f_child : int }

(* the first ops whose per-trap spans are kept *)
let retain_ops = 3

type t = {
  mutable negative : int;  (* spans whose children outlasted them *)
  retained : Asc_obs.Trace.t;
  origin : int;
  mutable next_id : int;
  mutable op : int;
  mutable ops_seen : int;
  mutable stack : frame list;
  totals : (string, total) Hashtbl.t;
  op_counts : (int, op_count) Hashtbl.t;  (* by op index *)
  checker : total;
  dispatch : total;
  deny : total;
  checker_ns : Samples.t;
  dispatch_ns : Samples.t;
  deny_ns : Samples.t;
  spawn_ns : Samples.t;
  mutable checker_words : int;
  (* per-trap state: when the checker returned, and how *)
  mutable pre_end : int;
  mutable pre_id : int;
  mutable denied : bool;
}

let create () =
  let total () = { count = 0; total_ns = 0; self_ns = 0 } in
  let t =
    { negative = 0; retained = Asc_obs.Trace.create ~capacity:50_000 (); origin = now_ns ();
      next_id = 1; op = 0; ops_seen = 0; stack = []; totals = Hashtbl.create 16;
      op_counts = Hashtbl.create 1024;
      checker = total (); dispatch = total (); deny = total (); checker_ns = Samples.create ();
      dispatch_ns = Samples.create (); deny_ns = Samples.create ();
      spawn_ns = Samples.create (); checker_words = 0; pre_end = 0; pre_id = 0; denied = false }
  in
  List.iter (fun (n, v) -> Hashtbl.replace t.totals n v)
    [ ("checker", t.checker); ("dispatch", t.dispatch); ("deny", t.deny) ];
  Asc_obs.Trace.name_process t.retained "hostbench";
  t

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent_id t = match t.stack with f :: _ -> f.f_id | [] -> 0

let emit t ~name ~id ~parent ~t0 ~t1 =
  let open Asc_obs.Json in
  Asc_obs.Trace.complete t.retained ~cat:"hostbench" ~track:1
    ~args:[ ("id", Int id); ("parent", Int parent); ("op", Int t.op) ]
    ~name ~ts:((t0 - t.origin) / 1000) ~dur:(max 0 ((t1 - t0) / 1000)) ()

let total_of t name =
  match Hashtbl.find_opt t.totals name with
  | Some s -> s
  | None ->
    let s = { count = 0; total_ns = 0; self_ns = 0 } in
    Hashtbl.replace t.totals name s;
    s

(* Close a leaf span under the innermost open span (a trap-level span). *)
let leaf t (s : total) samples ~name ~id ~t0 ~t1 =
  let d = t1 - t0 in
  s.count <- s.count + 1;
  s.total_ns <- s.total_ns + d;
  s.self_ns <- s.self_ns + d;
  Samples.add samples d;
  (match t.stack with f :: _ -> f.f_child <- f.f_child + d | [] -> ());
  if t.ops_seen <= retain_ops then emit t ~name ~id ~parent:(parent_id t) ~t0 ~t1

(* [timed t name f] times [f] as a child of the innermost open span. *)
let timed t name f =
  let f0 = { f_id = fresh t; f_t0 = now_ns (); f_child = 0 } in
  let parent = parent_id t in
  t.stack <- f0 :: t.stack;
  let close () =
    let t1 = now_ns () in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    let d = t1 - f0.f_t0 in
    let s = total_of t name in
    s.count <- s.count + 1;
    s.total_ns <- s.total_ns + d;
    s.self_ns <- s.self_ns + d - f0.f_child;
    if d < f0.f_child then t.negative <- t.negative + 1;
    (match t.stack with p :: _ -> p.f_child <- p.f_child + d | [] -> ());
    if name = "spawn" then Samples.add t.spawn_ns d;
    emit t ~name ~id:f0.f_id ~parent ~t0:f0.f_t0 ~t1
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* The span helpers below take the tracer as an option: with [None] the
   op is untraced and [f] simply runs. *)
let span tracer name f = match tracer with Some t -> timed t name f | None -> f ()

(* The root span of one op. Its id is the id every span of the op shares. *)
let op tracer ~index f =
  match tracer with
  | None -> f ()
  | Some t ->
    t.ops_seen <- t.ops_seen + 1;
    t.op <- index;
    t.stack <- [];
    let c0 = t.checker.count and d0 = t.dispatch.count and n0 = t.deny.count in
    let record () =
      Hashtbl.replace t.op_counts index
        { o_checker = t.checker.count - c0; o_dispatch = t.dispatch.count - d0;
          o_deny = t.deny.count - n0 }
    in
    (match timed t "op" f with
     | v -> record (); v
     | exception e -> record (); raise e)

(* [wrap t m] times the monitor from outside: the checker span is the call
   to [pre_syscall]; the dispatch span runs from its return to the entry of
   [post_syscall]; a denied trap opens a deny span that the run span closes
   (kill, forensic snapshot, audit and teardown). The wrapper itself
   allocates nothing per trap. *)
let wrap t (m : Oskernel.Kernel.monitor) =
  { m with
    Oskernel.Kernel.pre_syscall =
      (fun p ~site ~number ->
        let w0 = Asc_obs.Profile.minor_words () in
        let t0 = now_ns () in
        let v = m.Oskernel.Kernel.pre_syscall p ~site ~number in
        let t1 = now_ns () in
        t.checker_words <- t.checker_words + (Asc_obs.Profile.minor_words () - w0);
        leaf t t.checker t.checker_ns ~name:"checker" ~id:(fresh t) ~t0 ~t1;
        t.pre_end <- t1;
        t.pre_id <- fresh t;
        t.denied <- (match v with Oskernel.Kernel.Allow -> false | _ -> true);
        v);
    post_syscall =
      (fun p ~site ~sem ~result ->
        let t1 = now_ns () in
        leaf t t.dispatch t.dispatch_ns ~name:"dispatch" ~id:t.pre_id ~t0:t.pre_end ~t1;
        m.Oskernel.Kernel.post_syscall p ~site ~sem ~result) }

(* [run t f] is the run span around one enforced [Kernel.run]; a deny seen
   during it closes as a deny span when the run returns. *)
let run tracer f =
  match tracer with
  | None -> f ()
  | Some t ->
    t.denied <- false;
    timed t "run" (fun () ->
        let v = f () in
        if t.denied then
          leaf t t.deny t.deny_ns ~name:"deny" ~id:t.pre_id ~t0:t.pre_end ~t1:(now_ns ());
        v)

let write_chrome t path =
  let oc = open_out path in
  output_string oc (Asc_obs.Trace.chrome_string t.retained);
  close_out oc
