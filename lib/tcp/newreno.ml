(** TCP NewReno: slow start + AIMD congestion avoidance with fast-recovery
    halving.  The reference loss-based baseline. *)

open Cc

let create ~mss ~now:_ =
  let w = window ~mss in
  let hystart = Hystart.create () in
  {
    name = "newreno";
    window = w;
    on_ack =
      (fun info ->
        Hystart.on_ack hystart w ~rtt_sample:info.rtt_sample;
        let acked = float_of_int info.acked_bytes in
        if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. acked
        else w.cwnd <- w.cwnd +. (w.mss *. acked /. w.cwnd));
    on_loss =
      (fun ~now:_ ~inflight:_ ->
        halve w;
        w.cwnd <- w.ssthresh);
    on_rto = (fun ~now:_ -> collapse w);
    phase = (fun () -> ss_or_ca w);
  }
