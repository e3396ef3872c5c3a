(** Delay-based slow-start exit (HyStart, Ha & Rhee 2011 — shipped as the
    Linux CUBIC default).

    Exponential window growth continues one full RTT after the bottleneck
    queue starts building, which on deep-buffered paths overshoots by the
    whole buffer and collapses into RTO cycles.  Watching the RTT and
    leaving slow start as soon as it inflates past the propagation floor
    prevents that.  We apply it to every loss-based controller (Linux
    couples it to CUBIC only, but relies on pacing elsewhere; a
    packet-level simulator needs the same protection for the Reno
    family). *)

type t = { mutable rtt_min : float }

let create () = { rtt_min = Float.infinity }

(* RTT considered inflated once it exceeds the floor by max(4 ms, 12.5%) —
   the clamped eta/8 rule from the HyStart paper. *)
let on_ack t (w : Cc.window) ~rtt_sample =
  if w.cwnd < w.ssthresh then
    match rtt_sample with
    | None -> ()
    | Some r ->
      t.rtt_min <- Float.min t.rtt_min r;
      let threshold = t.rtt_min +. Float.max 0.004 (t.rtt_min /. 8.0) in
      if r > threshold then w.ssthresh <- w.cwnd
