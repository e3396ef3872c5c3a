type t = {
  config : Config.t;
  pipe_full_exit : bool;
  mutable cwnd : float;
  mutable slow_start : bool;
  rtt_ewma : Leotp_util.Stats.Ewma.t;
  rtt_min : Leotp_util.Windowed_min.t;
  thr_max : Leotp_util.Windowed_min.t;
      (** recent peak delivery rate; the BDP base (eq 6).  The smoothed
          rate dips whenever cwnd is cut, so using it for BDP would spiral
          the operating point down. *)
  mutable thr_ewma : float;  (** bytes/s *)
  mutable bytes_since_adjust : int;
  mutable last_adjust : float;
  mutable next_adjust : float;
}

let initial_cwnd config = 10.0 *. float_of_int config.Config.mss

(* One controller record per flow at first contact — setup, not
   per-packet. *)
let create ?(pipe_full_exit = true) ~config ~now () =
  ({
    config;
    pipe_full_exit;
    cwnd = initial_cwnd config;
    slow_start = true;
    rtt_ewma = Leotp_util.Stats.Ewma.create ~alpha:0.125;
    rtt_min =
      Leotp_util.Windowed_min.create_min ~window:config.Config.min_rtt_window;
    thr_max = Leotp_util.Windowed_min.create_max ~window:2.0;
    thr_ewma = 0.0;
    bytes_since_adjust = 0;
    last_adjust = now;
    next_adjust = now;
    } [@leotp.allow "hot-path-may-alloc"])

let hop_rtt t =
  let v = Leotp_util.Stats.Ewma.value t.rtt_ewma in
  if Float.is_nan v then None else Some v

let hop_rtt_min t ~now = Leotp_util.Windowed_min.get t.rtt_min ~now
let in_slow_start t = t.slow_start
let cwnd t = t.cwnd

(* Nested matches, not a tuple pattern: this runs per adjust on the
   per-Data control path and a 2-tuple scrutinee is a minor-heap
   allocation. *)
let queue_len t ~now =
  match hop_rtt t with
  | None -> 0.0
  | Some rtt -> (
    match hop_rtt_min t ~now with
    | Some rtt_min -> t.thr_ewma *. Float.max 0.0 (rtt -. rtt_min)
    | None -> 0.0)

let adjust t ~now =
  let mss = float_of_int t.config.Config.mss in
  (* Throughput over the last adjustment interval, smoothed. *)
  let interval = now -. t.last_adjust in
  if interval > 0.0 then begin
    let sample = float_of_int t.bytes_since_adjust /. interval in
    t.thr_ewma <-
      (if Float.equal t.thr_ewma 0.0 then sample
       else (0.7 *. t.thr_ewma) +. (0.3 *. sample));
    Leotp_util.Windowed_min.add t.thr_max ~now t.thr_ewma
  end;
  t.bytes_since_adjust <- 0;
  t.last_adjust <- now;
  let q = queue_len t ~now in
  let m = t.config.Config.queue_threshold in
  if t.slow_start then begin
    (* Exit on queue build-up (eq 8) or when the window outruns what the
       path delivers (doubling cwnd stopped doubling throughput): queueing
       at the Responder's sending buffer is invisible to hopRTT by design
       (§III-C), so the pipe-full check is the only signal for it. *)
    let factor = if t.pipe_full_exit then 2.0 else 2.5 in
    (* Without [pipe_full_exit] the check still applies with extra
       headroom: on the Consumer's pull loop, thr*rtt IS the pipe's BDP,
       and exponential growth past ~2.5x of it only builds invisible
       Responder backlog (the queue signal lags the RTT smoothing). *)
    let pipe_full =
      match hop_rtt t with
      | Some rtt -> t.thr_ewma > 0.0 && t.cwnd > factor *. t.thr_ewma *. rtt
      | None -> false
    in
    if q > m || pipe_full then t.slow_start <- false
    else t.cwnd <- t.cwnd *. 2.0
  end;
  if not t.slow_start then begin
    if q <= m then t.cwnd <- t.cwnd +. mss
    else begin
      let thr =
        Leotp_util.Windowed_min.get_or t.thr_max ~now ~default:t.thr_ewma
      in
      let bdp =
        match hop_rtt_min t ~now with
        | Some rtt_min -> thr *. rtt_min
        | None -> t.cwnd
      in
      t.cwnd <- Float.max (2.0 *. mss) (t.config.Config.k *. bdp)
    end
  end

let on_delivered t ~now:_ ~bytes =
  t.bytes_since_adjust <- t.bytes_since_adjust + bytes

let on_data t ~now ~interest_owd ~data_owd ~bytes =
  let sample = Float.max 1e-6 (interest_owd +. data_owd) in
  Leotp_util.Stats.Ewma.add t.rtt_ewma sample;
  Leotp_util.Windowed_min.add t.rtt_min ~now sample;
  t.bytes_since_adjust <- t.bytes_since_adjust + bytes;
  if now >= t.next_adjust then begin
    adjust t ~now;
    let rtt =
      match hop_rtt t with Some r -> Float.max r 0.002 | None -> 0.01
    in
    t.next_adjust <- now +. rtt
  end

let rate t ~now =
  (* cwnd over the *floor* RTT: dividing by the smoothed RTT would lower
     the advertised rate as queues build, starving the very drain that
     clears them (Vegas's baseRTT argument). *)
  let rtt =
    match hop_rtt_min t ~now with
    | Some r -> Float.max r 1e-4
    | None -> (
      match hop_rtt t with Some r -> Float.max r 1e-4 | None -> 0.01)
  in
  let window_rate = t.cwnd /. rtt in
  (* Never advertise more than 2x the hop's recent peak delivery rate:
     the window rate alone can outrun the path indefinitely because
     Responder buffering is invisible to hopRTT (§III-C).  The 2x headroom
     still lets slow start double every hopRTT; the recent *peak* (not the
     smoothed rate) is used so that transient pipeline bubbles after a
     window cut do not feed back into a rate collapse.  Reaction to real
     bandwidth drops comes from the QueueLen cut of eq (8). *)
  let thr =
    Leotp_util.Windowed_min.get_or t.thr_max ~now ~default:t.thr_ewma
  in
  if thr > 0.0 then Float.min window_rate (2.0 *. thr) else window_rate
