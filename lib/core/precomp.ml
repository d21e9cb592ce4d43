(* Site-indexed memo of verified calls.

   Soundness rests on what a compiled memo asserts. A memo is only
   created from a verification that just succeeded on the slow path, so it
   pins one call C with CMAC(key, encode C) = supplied tag T. A later trap
   whose rebuilt call equals C structurally and whose supplied tag equals T
   is the same verification, byte for byte, and must succeed again.
   Anything else — no memo, different statics, different dynamic fields or
   a different tag — falls back to the untouched slow path, so denies are
   byte-identical with the memo on or off (nothing is ever remembered from
   a failed verification). *)

type t = {
  ctr_hits : Asc_obs.Metrics.counter;
  ctr_misses : Asc_obs.Metrics.counter;
  ctr_fallbacks : Asc_obs.Metrics.counter;
  ctr_compiles : Asc_obs.Metrics.counter;
  g_saved : Asc_obs.Metrics.gauge;
}

type verdict =
  | Hit of { suffix_len : int; encoded_len : int }
  | Fallback of Asc_obs.Telemetry.fallback

let create ~key:_ ~registry () =
  { ctr_hits =
      Asc_obs.Metrics.counter registry "precomp.hits" ~help:"precompiled-site memo hits";
    ctr_misses = Asc_obs.Metrics.counter registry "precomp.misses";
    ctr_fallbacks =
      Asc_obs.Metrics.counter registry "precomp.fallbacks"
        ~help:"structural or tag mismatches sent to the slow path";
    ctr_compiles = Asc_obs.Metrics.counter registry "precomp.compiles";
    g_saved =
      Asc_obs.Metrics.gauge registry "precomp.cycles_saved"
        ~help:"modeled CMAC cycles skipped by the precompiled fast path" }

let note_saved t n = Asc_obs.Metrics.set t.g_saved (Asc_obs.Metrics.gauge_value t.g_saved + n)

let statics_match (e : Encoded.t) (call : Encoded.t) =
  e.Encoded.e_number = call.Encoded.e_number
  && e.Encoded.e_site = call.Encoded.e_site
  && e.Encoded.e_descriptor = call.Encoded.e_descriptor
  && e.Encoded.e_block = call.Encoded.e_block

let check t (row : Sitetab.row) ~(call : Encoded.t) ~supplied =
  match row.Sitetab.memo with
  | None ->
    Asc_obs.Metrics.inc t.ctr_misses;
    Fallback Asc_obs.Telemetry.F_no_entry
  | Some { Sitetab.m_call; _ } when not (statics_match m_call call) ->
    Asc_obs.Metrics.inc t.ctr_fallbacks;
    Fallback Asc_obs.Telemetry.F_statics
  | Some { Sitetab.m_call; m_mac; m_len }
    when call = m_call && Asc_crypto.Cmac.equal_tags m_mac supplied ->
    Asc_obs.Metrics.inc t.ctr_hits;
    Hit { suffix_len = m_len - Encoded.static_prefix_len; encoded_len = m_len }
  | Some _ ->
    Asc_obs.Metrics.inc t.ctr_fallbacks;
    Fallback Asc_obs.Telemetry.F_tag

let compile t (row : Sitetab.row) ~(call : Encoded.t) ~encoded ~mac =
  let len = String.length encoded in
  if
    len > Encoded.static_prefix_len
    && Sitetab.set_memo row { Sitetab.m_call = call; m_mac = mac; m_len = len }
  then Asc_obs.Metrics.inc t.ctr_compiles
