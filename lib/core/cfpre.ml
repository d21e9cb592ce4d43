(* Site-indexed precompiled control-flow policy: predecessor bitsets plus
   the per-pid lbMAC chain step.

   Soundness rests on what a bitset asserts and what the fast path
   re-checks. A bitset is only compiled from a predecessor set whose
   authenticated-string MAC just verified on the slow path, so it pins one
   (addr, len, tag) reference together with the exact contents the tag
   covers. On a later trap the fast path accepts the bitset only when the
   live reference equals the compiled one *and* the live guest bytes equal
   the compiled contents — under which the slow path's string-MAC check
   would necessarily succeed with the same bytes, so replacing it with the
   bitset membership test (built from those same bytes, bit b set iff
   [Encoded.predset_mem contents b]) decides exactly what the slow path
   would decide. Any missing bitset, changed reference or changed byte
   falls back to the untouched slow path, so denies are byte-identical
   with the bitsets on or off. The nonce-fresh lbMAC is deliberately NOT
   cached: the checker still recomputes it on every call; the pid's
   scratch only holds the amortized single-block chain step's bytes. *)

type t = {
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_fallbacks : Asc_obs.Metrics.counter;
  ctr_compiles : Asc_obs.Metrics.counter;
  g_saved : Asc_obs.Metrics.gauge;
}

type verdict =
  | Hit of Sitetab.preds
  | Fallback of Asc_obs.Telemetry.cf_reason

let block_limit = 65536

let create ~registry () =
  { ctr_hits =
      Asc_obs.Metrics.counter registry "cfpre.hits"
        ~help:"control-flow bitset hits (predecessor check by load+test)";
    ctr_misses = Asc_obs.Metrics.counter registry "cfpre.misses";
    ctr_fallbacks =
      Asc_obs.Metrics.counter registry "cfpre.fallbacks"
        ~help:"reference or contents mismatches sent to the slow path";
    ctr_compiles = Asc_obs.Metrics.counter registry "cfpre.compiles";
    g_saved =
      Asc_obs.Metrics.gauge registry "cfpre.cycles_saved"
        ~help:"modeled cycles skipped by the bitset + lbMAC-chain fast path" }

let note_saved t n = Asc_obs.Metrics.set t.g_saved (Asc_obs.Metrics.gauge_value t.g_saved + n)

let member (p : Sitetab.preds) bid =
  let o = bid - p.p_base in
  o >= 0 && o < p.p_span
  && Char.code (Bytes.get p.p_bits (o lsr 3)) land (1 lsl (o land 7)) <> 0

(* [Encoded.state_bytes]'s u64 encoding ([lsr], so a negative int keeps a
   clear top bit), written in place *)
let set_u64 b ~pos v =
  for i = 0 to 7 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let state_into (sc : Sitetab.scratch) ~counter ~last_block =
  set_u64 sc.ps_state ~pos:0 counter;
  set_u64 sc.ps_state ~pos:8 last_block

let ref_equal (a : Encoded.as_ref) (b : Encoded.as_ref) =
  a.Encoded.as_addr = b.Encoded.as_addr
  && a.Encoded.as_len = b.Encoded.as_len
  && String.equal a.Encoded.as_mac b.Encoded.as_mac

(* Deliberately flat: the probe runs on every monitored call and its words
   count against the fast path's allocation budget — on the hit path only
   the [Hit] block itself is allocated. *)
let check t ~m (row : Sitetab.row) ~(pred_ref : Encoded.as_ref) =
  match row.preds with
  | None ->
    Asc_obs.Metrics.inc t.ctr_misses;
    Fallback Asc_obs.Telemetry.Cf_slow
  | Some p ->
    if not (ref_equal p.p_ref pred_ref) then begin
      Asc_obs.Metrics.inc t.ctr_fallbacks;
      Fallback Asc_obs.Telemetry.Cf_fallback_ref
    end
    else if not (Svm.Machine.mem_equal m ~addr:pred_ref.Encoded.as_addr p.p_contents) then begin
      (* the reference (and its tag) matches but the guest bytes moved
         out from under it — the slow path re-reads and re-MACs, and
         denies *)
      Asc_obs.Metrics.inc t.ctr_fallbacks;
      Fallback Asc_obs.Telemetry.Cf_fallback_contents
    end
    else begin
      Asc_obs.Metrics.inc t.ctr_hits;
      Hit p
    end

(* Parse the sorted-unique u64 LE block ids the verified set carries.
   Returns [None] — compile declined — on a malformed length, an id that
   overflows the host int (negative after 63-bit truncation), or a set
   whose ids span more than [block_limit] (ids are globally unique —
   program id in the high bits — so the bitset is offset from the set's
   smallest id and only the *span* must stay dense); such sites simply
   keep taking the slow path, which decides membership from the string
   itself. *)
let parse_ids contents =
  let n = String.length contents in
  if n = 0 || n mod 8 <> 0 then None
  else begin
    let ids = List.init (n / 8) (fun i -> Int64.to_int (String.get_int64_le contents (8 * i))) in
    let base = List.fold_left min max_int ids and top = List.fold_left max 0 ids in
    if base < 0 || top - base >= block_limit then None else Some (base, top - base + 1, ids)
  end

let compile t (row : Sitetab.row) ~(pred_ref : Encoded.as_ref) ~contents =
  match parse_ids contents with
  | None -> ()
  | Some (base, span, ids) ->
    let bits = Bytes.make ((span + 7) / 8) '\000' in
    List.iter
      (fun v ->
        let o = v - base in
        Bytes.set bits (o lsr 3)
          (Char.chr (Char.code (Bytes.get bits (o lsr 3)) lor (1 lsl (o land 7)))))
      ids;
    let preds =
      { Sitetab.p_ref = pred_ref; p_contents = contents; p_bits = bits; p_base = base;
        p_span = span }
    in
    if Sitetab.set_preds row preds then Asc_obs.Metrics.inc t.ctr_compiles
