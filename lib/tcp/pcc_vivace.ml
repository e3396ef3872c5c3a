(** PCC Vivace (Dong et al., NSDI'18), simplified online-learning model.

    The sender partitions time into monitor intervals (MIs) of about one
    RTT, computes the Vivace utility of each MI
      U = thr^0.9 - b * thr * max(0, dRTT/dt) - c * thr * loss_rate
    (throughput in Mbps), and performs gradient-style rate steps: paired
    probe MIs at rate*(1±eps) decide the direction, and a confidence
    amplifier grows the step while the direction is consistent.  Loss
    enters only through the utility, so PCC is largely loss-insensitive,
    but the c coefficient makes utility collapse under heavy loss — the
    behaviour Fig 2 reports at 5% end-to-end PLR. *)

open Cc

let eps = 0.05
let base_step = 0.05
let max_step = 0.3
let utility_b = 900.0
let utility_c = 11.35

type phase =
  | Starting
  | Probe_up  (** running the rate*(1+eps) MI *)
  | Probe_down  (** running the rate*(1-eps) MI *)

type state = {
  mutable rate : float;  (** base rate decision, bytes/s *)
  mutable phase : phase;
  mutable srtt : float;
  mutable mi_end : float;
  mutable mi_acked : int;
  mutable mi_lost : int;
  mutable mi_rtt_first : float option;
  mutable mi_rtt_last : float option;
  mutable mi_start : float;
  mutable prev_utility : float;
  mutable up_utility : float;
  mutable direction : float;  (** +1 / -1 of last move *)
  mutable step : float;
}

let utility ~thr_bps ~rtt_grad ~loss_rate =
  let thr = Leotp_util.Units.bytes_per_sec_to_mbps thr_bps in
  if thr <= 0.0 then 0.0
  else
    (thr ** 0.9)
    -. (utility_b *. thr *. Float.max 0.0 rtt_grad)
    -. (utility_c *. thr *. loss_rate)

let create ~mss ~now =
  let w = window ~mss in
  let s =
    {
      rate = 20.0 *. w.mss /. 0.1;  (* ~2.2 Mbps starting guess *)
      phase = Starting;
      srtt = 0.1;
      mi_end = now +. 0.1;
      mi_acked = 0;
      mi_lost = 0;
      mi_rtt_first = None;
      mi_rtt_last = None;
      mi_start = now;
      prev_utility = Float.neg_infinity;
      up_utility = 0.0;
      direction = 1.0;
      step = base_step;
    }
  in
  let mi_utility () =
    let dur = Float.max (s.mi_end -. s.mi_start) 1e-6 in
    let thr_bps = float_of_int s.mi_acked /. dur in
    let rtt_grad =
      match (s.mi_rtt_first, s.mi_rtt_last) with
      | Some a, Some b -> (b -. a) /. dur
      | _ -> 0.0
    in
    let pkts_acked = s.mi_acked / mss in
    let loss_rate =
      let total = pkts_acked + s.mi_lost in
      if total = 0 then 0.0 else float_of_int s.mi_lost /. float_of_int total
    in
    utility ~thr_bps ~rtt_grad ~loss_rate
  in
  let start_mi now =
    s.mi_start <- now;
    s.mi_end <- now +. Float.max s.srtt 0.01;
    s.mi_acked <- 0;
    s.mi_lost <- 0;
    s.mi_rtt_first <- None;
    s.mi_rtt_last <- None
  in
  let finish_mi now =
    let u = mi_utility () in
    (match s.phase with
    | Starting ->
      if u >= s.prev_utility then begin
        s.prev_utility <- u;
        s.rate <- s.rate *. 2.0
      end
      else begin
        (* Overshot: back off and switch to gradient probing. *)
        s.rate <- s.rate /. 2.0;
        s.phase <- Probe_up;
        s.prev_utility <- u
      end
    | Probe_up ->
      s.up_utility <- u;
      s.phase <- Probe_down
    | Probe_down ->
      let dir = if s.up_utility >= u then 1.0 else -1.0 in
      if dir = s.direction then
        s.step <- Float.min max_step (s.step +. base_step)
      else s.step <- base_step;
      s.direction <- dir;
      s.rate <- s.rate *. (1.0 +. (dir *. s.step));
      s.phase <- Probe_up);
    s.rate <- Float.max s.rate (2.0 *. w.mss /. Float.max s.srtt 0.01);
    start_mi now
  in
  (* The window follows the rate, the SRTT and the probe direction,
     which only [on_ack] moves: written at creation and at the end of
     every ACK. *)
  let write_window () =
    w.cwnd <- Float.max (2.0 *. s.rate *. s.srtt) (4.0 *. w.mss);
    let gain =
      match s.phase with
      | Starting -> 1.0
      | Probe_up -> 1.0 +. eps
      | Probe_down -> 1.0 -. eps
    in
    w.pacing_rate <- gain *. s.rate
  in
  write_window ();
  {
    name = "pcc";
    window = w;
    on_ack =
      (fun info ->
        (match info.rtt_sample with
        | Some r ->
          s.srtt <- (0.875 *. s.srtt) +. (0.125 *. r);
          if s.mi_rtt_first = None then s.mi_rtt_first <- Some r;
          s.mi_rtt_last <- Some r
        | None -> ());
        s.mi_acked <- s.mi_acked + info.acked_bytes;
        if info.now >= s.mi_end then finish_mi info.now;
        write_window ());
    on_loss = (fun ~now:_ ~inflight:_ -> s.mi_lost <- s.mi_lost + 1);
    on_rto = (fun ~now:_ -> s.mi_lost <- s.mi_lost + 10);
    phase =
      (fun () ->
        match s.phase with
        | Starting -> "starting"
        | Probe_up -> "probe_up"
        | Probe_down -> "probe_down");
  }
