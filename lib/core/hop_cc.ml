(* The controller's floats, stored flat: a write boxes nothing. *)
type window = {
  mutable cwnd : float;
  mutable srtt : float;
  mutable thr_ewma : float;
  mutable last_adjust : float;
  mutable next_adjust : float;
}

type t = {
  config : Config.t;
  pipe_full_exit : bool;
  w : window;
  mutable slow_start : bool;
  mutable primed : bool;  (** [w.srtt] holds a sample *)
  rtt_min : Leotp_util.Windowed_min.t;
  thr_max : Leotp_util.Windowed_min.t;
      (** recent peak delivery rate; the BDP base (eq 6).  The smoothed
          rate dips whenever cwnd is cut, so using it for BDP would spiral
          the operating point down. *)
  mutable bytes_since_adjust : int;
  front : float array;
      (** one slot a windowed extremum or a sample passes through: a
          float passed to or returned from [Windowed_min] would be boxed *)
}

let initial_cwnd config = 10.0 *. float_of_int config.Config.mss

(* The hopRTT EWMA's weight of a new sample. *)
let alpha = 0.125

(* One controller record per flow at first contact — setup, not
   per-packet. *)
let create ?(pipe_full_exit = true) ~config ~now () =
  ({
    config;
    pipe_full_exit;
    w =
      {
        cwnd = initial_cwnd config;
        srtt = Float.nan;
        thr_ewma = 0.0;
        last_adjust = now;
        next_adjust = now;
      };
    slow_start = true;
    primed = false;
    rtt_min =
      Leotp_util.Windowed_min.create_min ~window:config.Config.min_rtt_window;
    thr_max = Leotp_util.Windowed_min.create_max ~window:2.0;
    bytes_since_adjust = 0;
    front = Array.make 1 0.0;
    } [@leotp.allow "hot-path-may-alloc"])

let window t = t.w

(* The smoothed hopRTT, NaN before the first sample.  The helpers below
   are inlined, so no float they compute crosses a call. *)
let[@inline] smoothed t = t.w.srtt

(* hopRTT_min into [t.front.(0)]; [false] over an empty window. *)
let[@inline] read_rtt_min t ~now =
  Leotp_util.Windowed_min.get_into t.rtt_min ~now t.front 0

(* The recent peak delivery rate, or the smoothed one before any. *)
let[@inline] peak_thr t ~now =
  if Leotp_util.Windowed_min.get_into t.thr_max ~now t.front 0 then t.front.(0)
  else t.w.thr_ewma

let in_slow_start t = t.slow_start

let[@inline] queue_len t ~now =
  let rtt = smoothed t in
  if Float.is_nan rtt then 0.0
  else if read_rtt_min t ~now then
    t.w.thr_ewma *. Float.max 0.0 (rtt -. t.front.(0))
  else 0.0

let adjust t ~now =
  let mss = float_of_int t.config.Config.mss in
  (* Throughput over the last adjustment interval, smoothed. *)
  let w = t.w in
  let interval = now -. w.last_adjust in
  if interval > 0.0 then begin
    let sample = float_of_int t.bytes_since_adjust /. interval in
    w.thr_ewma <-
      (if Float.equal w.thr_ewma 0.0 then sample
       else (0.7 *. w.thr_ewma) +. (0.3 *. sample));
    t.front.(0) <- w.thr_ewma;
    Leotp_util.Windowed_min.add t.thr_max ~now t.front 0
  end;
  t.bytes_since_adjust <- 0;
  w.last_adjust <- now;
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
      let rtt = smoothed t in
      (not (Float.is_nan rtt))
      && w.thr_ewma > 0.0
      && w.cwnd > factor *. w.thr_ewma *. rtt
    in
    if q > m || pipe_full then t.slow_start <- false
    else w.cwnd <- w.cwnd *. 2.0
  end;
  if not t.slow_start then begin
    if q <= m then w.cwnd <- w.cwnd +. mss
    else begin
      let thr = peak_thr t ~now in
      let bdp = if read_rtt_min t ~now then thr *. t.front.(0) else w.cwnd in
      w.cwnd <- Float.max (2.0 *. mss) (t.config.Config.k *. bdp)
    end
  end

let on_delivered t ~now:_ ~bytes =
  t.bytes_since_adjust <- t.bytes_since_adjust + bytes

(* One hopRTT sample for [bytes] delivered; the caller writes the
   sample, seconds, into [t.front.(0)]: a float argument would be
   boxed. *)
let sample t ~now ~bytes =
  let x = t.front.(0) in
  let w = t.w in
  if t.primed then w.srtt <- ((1.0 -. alpha) *. w.srtt) +. (alpha *. x)
  else begin
    w.srtt <- x;
    t.primed <- true
  end;
  Leotp_util.Windowed_min.add t.rtt_min ~now t.front 0;
  t.bytes_since_adjust <- t.bytes_since_adjust + bytes;
  if now >= w.next_adjust then begin
    adjust t ~now;
    let r = smoothed t in
    let rtt = if Float.is_nan r then 0.01 else Float.max r 0.002 in
    w.next_adjust <- now +. rtt
  end

let on_data t ~now (pkt : Leotp_net.Packet.t) =
  let f = pkt.Leotp_net.Packet.f in
  let interest_owd = Float.max 0.0 f.(Wire.req_owd_slot) in
  let data_owd = Float.max 0.0 (now -. f.(Wire.timestamp_slot)) in
  t.front.(0) <- Float.max 1e-6 (interest_owd +. data_owd);
  sample t ~now ~bytes:pkt.Leotp_net.Packet.i2

let on_loop t ~now ~sent ~bytes =
  t.front.(0) <- Float.max 1e-6 (now -. sent +. 0.0);
  sample t ~now ~bytes

let[@inline] rate t ~now =
  (* cwnd over the *floor* RTT: dividing by the smoothed RTT would lower
     the advertised rate as queues build, starving the very drain that
     clears them (Vegas's baseRTT argument). *)
  let rtt =
    if read_rtt_min t ~now then Float.max t.front.(0) 1e-4
    else
      let r = smoothed t in
      if Float.is_nan r then 0.01 else Float.max r 1e-4
  in
  let window_rate = t.w.cwnd /. rtt in
  (* Never advertise more than 2x the hop's recent peak delivery rate:
     the window rate alone can outrun the path indefinitely because
     Responder buffering is invisible to hopRTT (§III-C).  The 2x headroom
     still lets slow start double every hopRTT; the recent *peak* (not the
     smoothed rate) is used so that transient pipeline bubbles after a
     window cut do not feed back into a rate collapse.  Reaction to real
     bandwidth drops comes from the QueueLen cut of eq (8). *)
  let thr = peak_thr t ~now in
  if thr > 0.0 then Float.min window_rate (2.0 *. thr) else window_rate

(* Eq (9), in the draining form (see the interface). *)
let[@inline] rate_bp ~config ~buffer_len ~next_hop_rate ~hop_rtt =
  let bl_tar = float_of_int config.Config.bl_target in
  let rtt = Float.max hop_rtt 1e-4 in
  Float.max 0.0 (next_hop_rate +. ((bl_tar -. float_of_int buffer_len) /. rtt))

let rate_into t ~now dst i = dst.(i) <- rate t ~now

(* Eq (10), computed here, where cwnd and the hop RTTs live, and written
   straight into the Interest: returned across modules, the rate would
   be boxed on every Interest a Midnode forwards.  The slot holds the
   next hop's drain rate on entry (Send_buffer.write_rate). *)
let advertise t ~now ~buffer_len (pkt : Leotp_net.Packet.t) =
  let f = pkt.Leotp_net.Packet.f in
  let next_hop_rate = f.(Wire.send_rate_slot) in
  let window_rate = rate t ~now in
  let r = smoothed t in
  let hop_rtt = if Float.is_nan r then 0.01 else r in
  f.(Wire.send_rate_slot) <-
    Float.min window_rate
      (rate_bp ~config:t.config ~buffer_len ~next_hop_rate ~hop_rtt)
