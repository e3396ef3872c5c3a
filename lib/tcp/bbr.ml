(** BBR (Cardwell et al.), simplified v1 model.

    Model-based control: a windowed-max filter estimates bottleneck
    bandwidth from delivery-rate samples and a windowed-min filter
    estimates the propagation RTT; the pacing rate cycles gains around the
    estimated bandwidth (ProbeBW), with Startup / Drain / ProbeRTT phases.
    Loss is ignored (the property the paper leans on in Figs 2 and 12);
    the delayed reaction to bandwidth change comes from the filter windows
    and probing cadence (Figs 5 and 14). *)

open Cc

let startup_gain = 2.885
let probe_gains = [| 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 |]
let min_rtt_expiry = 10.0
let probe_rtt_duration = 0.2

type mode = Startup | Drain | Probe_bw | Probe_rtt

type state = {
  mutable mode : mode;
  max_bw : Leotp_util.Windowed_min.t;  (** bytes/s *)
  bw : float array;  (** one slot a bandwidth sample enters [max_bw] through *)
  mutable min_rtt : float;
  mutable min_rtt_stamp : float;
  mutable srtt : float;
  mutable pacing_gain : float;
  mutable cwnd_gain : float;
  mutable cycle_index : int;
  mutable cycle_stamp : float;
  mutable full_bw : float;
  mutable full_bw_count : int;
  mutable round_start : float;
  mutable probe_rtt_done : float;
  mutable mode_before_probe_rtt : mode;
}

let create ~mss ~now =
  let w = window ~mss in
  let s =
    {
      mode = Startup;
      max_bw = Leotp_util.Windowed_min.create_max ~window:2.0;
      bw = [| 0.0 |];
      min_rtt = Float.infinity;
      min_rtt_stamp = now;
      srtt = 0.1;
      pacing_gain = startup_gain;
      cwnd_gain = startup_gain;
      cycle_index = 2;
      cycle_stamp = now;
      full_bw = 0.0;
      full_bw_count = 0;
      round_start = now;
      probe_rtt_done = 0.0;
      mode_before_probe_rtt = Probe_bw;
    }
  in
  let bw () =
    Leotp_util.Windowed_min.get_or s.max_bw ~now:s.round_start ~default:0.0
  in
  let bdp () =
    if Float.is_finite s.min_rtt then bw () *. s.min_rtt else 0.0
  in
  (* The window follows the model, which only [on_ack] moves ([bw] reads
     the filter at [round_start]): written at creation and at the end of
     every ACK. *)
  let write_window () =
    (w.cwnd <-
       match s.mode with
       | Probe_rtt -> 4.0 *. w.mss
       | _ ->
         let b = bdp () in
         if b <= 0.0 then initial_window mss
         else Float.max (s.cwnd_gain *. b) (4.0 *. w.mss));
    let b = bw () in
    w.pacing_rate <- (if b <= 0.0 then 0.0 else s.pacing_gain *. b)
  in
  write_window ();
  let enter_probe_bw now =
    s.mode <- Probe_bw;
    s.pacing_gain <- probe_gains.(s.cycle_index);
    s.cwnd_gain <- 2.0;
    s.cycle_stamp <- now
  in
  let on_ack info =
    let now = info.now in
    (match info.rtt_sample with
    | Some r ->
      s.srtt <- (0.875 *. s.srtt) +. (0.125 *. r);
      if r <= s.min_rtt || now -. s.min_rtt_stamp > min_rtt_expiry then begin
        s.min_rtt <- r;
        s.min_rtt_stamp <- now
      end
    | None -> ());
    (* Bandwidth filter spans ~10 round trips. *)
    Leotp_util.Windowed_min.set_window s.max_bw (Float.max (10.0 *. s.srtt) 1.0);
    (match info.bw_sample with
    | Some b ->
      s.bw.(0) <- b;
      Leotp_util.Windowed_min.add s.max_bw ~now s.bw 0
    | None -> ());
    s.round_start <- now;
    (match s.mode with
    | Startup ->
      (* Full-pipe detection: bandwidth stopped growing for ~3 rounds. *)
      let b = bw () in
      if b > s.full_bw *. 1.25 then begin
        s.full_bw <- b;
        s.full_bw_count <- 0;
        s.round_start <- now
      end
      else if now -. s.cycle_stamp > s.srtt then begin
        s.cycle_stamp <- now;
        s.full_bw_count <- s.full_bw_count + 1;
        if s.full_bw_count >= 3 then begin
          s.mode <- Drain;
          s.pacing_gain <- 1.0 /. startup_gain
        end
      end
    | Drain -> if float_of_int info.inflight <= bdp () then enter_probe_bw now
    | Probe_bw ->
      (* Advance the gain cycle once per min_rtt. *)
      let phase_len =
        if Float.is_finite s.min_rtt then Float.max s.min_rtt 0.01 else s.srtt
      in
      if now -. s.cycle_stamp > phase_len then begin
        s.cycle_index <- (s.cycle_index + 1) mod Array.length probe_gains;
        s.pacing_gain <- probe_gains.(s.cycle_index);
        s.cycle_stamp <- now
      end
    | Probe_rtt ->
      if now >= s.probe_rtt_done then begin
        s.min_rtt_stamp <- now;
        (match s.mode_before_probe_rtt with
        | Startup ->
          s.mode <- Startup;
          s.pacing_gain <- startup_gain
        | _ -> enter_probe_bw now)
      end);
    (* ProbeRTT entry: the min-RTT estimate is stale. *)
    if s.mode <> Probe_rtt && now -. s.min_rtt_stamp > min_rtt_expiry then begin
      s.mode_before_probe_rtt <- s.mode;
      s.mode <- Probe_rtt;
      s.pacing_gain <- 1.0;
      s.probe_rtt_done <- now +. probe_rtt_duration
    end;
    write_window ()
  in
  {
    name = "bbr";
    window = w;
    on_ack;
    on_loss = (fun ~now:_ ~inflight:_ -> ());
    on_rto = (fun ~now:_ -> ());
    phase =
      (fun () ->
        match s.mode with
        | Startup -> "startup"
        | Drain -> "drain"
        | Probe_bw -> Printf.sprintf "probe_bw:%d" s.cycle_index
        | Probe_rtt -> "probe_rtt");
  }
