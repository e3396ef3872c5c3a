(** TCP Vegas (Brakmo & Peterson 1995): RTT-based congestion avoidance.
    Keeps between [alpha] and [beta] segments queued in the network,
    estimated as (expected - actual) * baseRTT. *)

open Cc

let alpha = 2.0
let beta = 4.0
let gamma = 1.0

type state = {
  mutable base_rtt : float;
  mutable srtt : float;
  mutable next_update : float;  (** adjust once per RTT *)
  mutable in_slow_start : bool;
}

let create ~mss ~now =
  let w = window ~mss in
  let s =
    {
      base_rtt = Float.infinity;
      srtt = Float.nan;
      next_update = now;
      in_slow_start = true;
    }
  in
  let diff_segments () =
    (* (expected - actual) * baseRTT, in segments. *)
    if Float.is_nan s.srtt || not (Float.is_finite s.base_rtt) then 0.0
    else begin
      let expected = w.cwnd /. s.base_rtt in
      let actual = w.cwnd /. s.srtt in
      (expected -. actual) *. s.base_rtt /. w.mss
    end
  in
  {
    name = "vegas";
    window = w;
    on_ack =
      (fun info ->
        (match info.rtt_sample with
        | Some r ->
          s.base_rtt <- Float.min s.base_rtt r;
          s.srtt <-
            (if Float.is_nan s.srtt then r else (0.875 *. s.srtt) +. (0.125 *. r))
        | None -> ());
        if info.now >= s.next_update then begin
          s.next_update <-
            info.now +. (if Float.is_nan s.srtt then 0.1 else s.srtt);
          let diff = diff_segments () in
          if s.in_slow_start then begin
            if diff > gamma || w.cwnd >= w.ssthresh then s.in_slow_start <- false
            else w.cwnd <- w.cwnd *. 2.0
          end
          else if diff < alpha then w.cwnd <- w.cwnd +. w.mss
          else if diff > beta then
            w.cwnd <- Float.max (w.cwnd -. w.mss) (min_window mss)
        end);
    on_loss =
      (fun ~now:_ ~inflight:_ ->
        s.in_slow_start <- false;
        w.cwnd <- Float.max (w.cwnd *. 0.75) (min_window mss);
        w.ssthresh <- w.cwnd);
    on_rto =
      (fun ~now:_ ->
        s.in_slow_start <- false;
        collapse w);
    phase = (fun () -> if s.in_slow_start then "ss" else "ca");
  }
