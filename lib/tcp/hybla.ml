(** TCP Hybla (Caini & Firrincieli 2004): window growth scaled by
    rho = RTT/RTT0 so long-RTT (satellite) flows grow as fast as a
    reference terrestrial flow with RTT0 = 25 ms. *)

open Cc

let rtt0 = 0.025

type state = { mutable srtt : float }

let create ~mss ~now:_ =
  let w = window ~mss in
  let s = { srtt = rtt0 } in
  let rho () = Float.max 1.0 (s.srtt /. rtt0) in
  let hystart = Hystart.create () in
  {
    name = "hybla";
    window = w;
    on_ack =
      (fun info ->
        (match info.rtt_sample with
        | Some r -> s.srtt <- (0.875 *. s.srtt) +. (0.125 *. r)
        | None -> ());
        Hystart.on_ack hystart w ~rtt_sample:info.rtt_sample;
        let acked = float_of_int info.acked_bytes in
        let rho = rho () in
        if w.cwnd < w.ssthresh then
          (* SS: cwnd += (2^rho - 1) per acked segment. *)
          w.cwnd <- w.cwnd +. (((2.0 ** rho) -. 1.0) *. acked)
        else
          (* CA: cwnd += rho^2 * MSS^2 / cwnd per acked segment. *)
          w.cwnd <- w.cwnd +. (rho *. rho *. w.mss *. acked /. w.cwnd));
    on_loss =
      (fun ~now:_ ~inflight:_ ->
        halve w;
        w.cwnd <- w.ssthresh);
    on_rto = (fun ~now:_ -> collapse w);
    phase = (fun () -> ss_or_ca w);
  }
