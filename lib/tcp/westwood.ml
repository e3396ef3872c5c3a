(** TCP Westwood+ (Mascolo et al. 2001): Reno-style growth, but on loss the
    window is set from an end-to-end bandwidth estimate (ACK rate) times
    the minimum RTT, instead of blind halving — designed for lossy
    wireless links. *)

open Cc

type state = {
  mutable bwe : float;  (** bytes/s, EWMA of delivery-rate samples *)
  mutable rtt_min : float;
}

let create ~mss ~now:_ =
  let w = window ~mss in
  let s = { bwe = 0.0; rtt_min = Float.infinity } in
  let hystart = Hystart.create () in
  (* ssthresh from the estimated BDP, or half the window before the
     first estimate; never below 2 MSS. *)
  let set_ssthresh () =
    let target =
      if s.bwe > 0.0 && Float.is_finite s.rtt_min then s.bwe *. s.rtt_min
      else w.cwnd /. 2.0
    in
    w.ssthresh <- Float.max target (2.0 *. w.mss)
  in
  {
    name = "westwood";
    window = w;
    on_ack =
      (fun info ->
        (match info.rtt_sample with
        | Some r -> s.rtt_min <- Float.min s.rtt_min r
        | None -> ());
        Hystart.on_ack hystart w ~rtt_sample:info.rtt_sample;
        (match info.bw_sample with
        | Some b -> s.bwe <- if Float.equal s.bwe 0.0 then b else (0.9 *. s.bwe) +. (0.1 *. b)
        | None -> ());
        let acked = float_of_int info.acked_bytes in
        if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. acked
        else w.cwnd <- w.cwnd +. (w.mss *. acked /. w.cwnd));
    on_loss =
      (fun ~now:_ ~inflight:_ ->
        set_ssthresh ();
        w.cwnd <- Float.min w.cwnd w.ssthresh);
    on_rto =
      (fun ~now:_ ->
        set_ssthresh ();
        w.cwnd <- w.mss);
    phase = (fun () -> ss_or_ca w);
  }
