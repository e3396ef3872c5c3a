(** CUBIC (RFC 8312): cubic window growth in congestion avoidance with a
    TCP-friendly (Reno-tracking) floor, beta = 0.7, C = 0.4. *)

open Cc

let beta = 0.7
let c = 0.4

type state = {
  mutable w_max : float;  (** segments *)
  mutable k : float;
  mutable epoch_start : float option;
  mutable srtt : float;
}

let create ~mss ~now:_ =
  let w = window ~mss in
  let s = { w_max = 0.0; k = 0.0; epoch_start = None; srtt = 0.1 } in
  let hystart = Hystart.create () in
  let on_ack info =
    (match info.rtt_sample with
    | Some r -> s.srtt <- (0.875 *. s.srtt) +. (0.125 *. r)
    | None -> ());
    Hystart.on_ack hystart w ~rtt_sample:info.rtt_sample;
    let acked = float_of_int info.acked_bytes in
    if w.cwnd < w.ssthresh then w.cwnd <- w.cwnd +. acked
    else begin
      let now = info.now in
      (match s.epoch_start with
      | Some _ -> ()
      | None ->
        s.epoch_start <- Some now;
        let w_cwnd = w.cwnd /. w.mss in
        if s.w_max <= w_cwnd then begin
          s.w_max <- w_cwnd;
          s.k <- 0.0
        end
        else s.k <- Float.cbrt (s.w_max *. (1.0 -. beta) /. c));
      let epoch = Option.get s.epoch_start in
      let t = now -. epoch +. s.srtt in
      let target = (c *. ((t -. s.k) ** 3.0)) +. s.w_max in
      (* TCP-friendly region (RFC 8312 S4.2): Reno-equivalent window grows
         ~0.53 segments per RTT of elapsed epoch time. *)
      let w_est =
        (s.w_max *. beta)
        +. (3.0 *. (1.0 -. beta) /. (1.0 +. beta)
           *. (t /. Float.max s.srtt 1e-3))
      in
      let w_cwnd = w.cwnd /. w.mss in
      let next =
        if target > w_cwnd then w_cwnd +. ((target -. w_cwnd) /. w_cwnd)
        else w_cwnd +. (0.01 /. w_cwnd)
      in
      w.cwnd <- Float.max (next *. w.mss) (w_est *. w.mss)
    end
  in
  let on_loss ~now:_ ~inflight:_ =
    let w_cwnd = w.cwnd /. w.mss in
    (* Fast convergence (RFC 8312 §4.6). *)
    s.w_max <- (if w_cwnd < s.w_max then w_cwnd *. (2.0 -. beta) /. 2.0 else w_cwnd);
    w.cwnd <- Float.max (w.cwnd *. beta) (min_window mss);
    w.ssthresh <- w.cwnd;
    s.epoch_start <- None
  in
  {
    name = "cubic";
    window = w;
    on_ack;
    on_loss;
    on_rto =
      (fun ~now ->
        on_loss ~now ~inflight:0;
        w.cwnd <- w.mss);
    phase = (fun () -> ss_or_ca w);
  }
