module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Node = Leotp_net.Node
module Flow_metrics = Leotp_net.Flow_metrics
module Seg_store = Leotp_util.Seg_store

type source = Fixed of int | Unlimited | Dynamic of (unit -> int)

type t = {
  engine : Engine.t;
  node : Node.t;
  who : string;  (** this endpoint's name in trace events *)
  dst : int;
  flow : int;
  mss : int;
  cc : Cc.t;
  rto : Leotp_util.Rto.t;
  source : source;
  metrics : Flow_metrics.t;
  on_complete : unit -> unit;
  mutable first_sent_of : pos:int -> len:int -> float * bool;
  segments : Seg_store.t;  (** ordered by seq; unacked only *)
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable inflight : int;
  mutable lost_pending : int;  (** segments marked lost, not yet resent *)
  mutable high_sacked : int;
  mutable recovery_point : int;
  mutable delivered : int;
  mutable bw_clock : float;
  mutable bw_delivered : int;
  mutable rto_timer : Engine.timer;
  mutable rto_armed_at : float;
  mutable rto_floor : float;
      (** min (SRTT + 4*RTTVAR, armed timeout) at arm time, for the trace
          invariant that the RTO never fires early *)
  mutable pump_timer : Engine.timer;  (** pacing *)
  mutable next_send_time : float;
  mutable finished : bool;
  mutable started : bool;
}

let dupthresh_bytes t = 3 * t.mss

let available_bytes t =
  match t.source with
  | Fixed n -> n
  | Unlimited -> max_int
  | Dynamic f -> f ()

let total_bytes t = match t.source with Fixed n -> Some n | _ -> None

let trace_seg t (seg : Seg_store.seg) state =
  if Leotp_net.Trace.on () then
    Leotp_net.Trace.emit
      (Leotp_net.Trace.Seg_state
         { who = t.who; flow = t.flow; seq = seg.seq; len = seg.len; state })

let mark_lost t (seg : Seg_store.seg) =
  if (not seg.lost) && not seg.sacked then begin
    seg.lost <- true;
    t.lost_pending <- t.lost_pending + 1;
    t.inflight <- max 0 (t.inflight - seg.len);
    trace_seg t seg Leotp_net.Trace.Seg_lost
  end

(* [finish] disarms the RTO and nothing re-arms it afterwards. *)
let rec arm_rto t =
  if not t.finished then begin
    let timeout = Leotp_util.Rto.rto t.rto in
    t.rto_armed_at <- Engine.now t.engine;
    t.rto_floor <- Leotp_util.Rto.timeout_floor t.rto ~timeout;
    Engine.arm t.rto_timer ~after:timeout
  end

(* Loss recovery after a retransmission timeout: fires once per RTO, not
   per packet, so its scan closures are off the steady-state budget. *)
and on_rto_fire t =
  if (not t.finished) && not (Seg_store.is_empty t.segments) then begin
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.emit
        (Leotp_net.Trace.Rto_fire
           {
             who = t.who;
             elapsed = Engine.now t.engine -. t.rto_armed_at;
             floor = t.rto_floor;
           });
    Leotp_util.Rto.backoff t.rto;
    t.cc.Cc.on_rto ~now:(Engine.now t.engine);
    (* Everything outstanding and un-SACKed is presumed lost (Linux
       behaviour); retransmissions then proceed window-limited from the
       collapsed cwnd.  Without this, tail losses leave segments counted
       as in-flight forever and the connection stalls. *)
    Seg_store.iter t.segments (fun seg -> if not seg.sacked then mark_lost t seg);
    (* Retransmit the first unacknowledged segment immediately. *)
    let seg = Seg_store.get t.segments 0 in
    if not seg.sacked then send_segment t seg ~retx:true;
    arm_rto t;
    pump t
  end
[@@leotp.allow "hot-path-may-alloc"]

and send_segment t seg ~retx =
  let now = Engine.now t.engine in
  if retx then begin
    seg.retx_count <- seg.retx_count + 1;
    if seg.lost then begin
      seg.lost <- false;
      t.lost_pending <- max 0 (t.lost_pending - 1)
    end;
    Flow_metrics.on_retransmit t.metrics
  end
  else seg.first_sent <- now;
  seg.last_sent <- now;
  t.inflight <- t.inflight + seg.len;
  trace_seg t seg
    (if retx then Leotp_net.Trace.Seg_retx else Leotp_net.Trace.Seg_sent);
  let first_sent, upstream_retx = t.first_sent_of ~pos:seg.seq ~len:seg.len in
  let fin =
    match total_bytes t with Some n -> seg.seq + seg.len >= n | None -> false
  in
  let pkt =
    Wire.data_packet ~src:(Node.id t.node) ~dst:t.dst ~flow:t.flow ~seq:seg.seq
      ~len:seg.len ~sent_at:now ~first_sent
      ~retx:(retx || seg.retx_count > 0 || upstream_retx)
      ~fin
  in
  Flow_metrics.on_send t.metrics ~bytes:pkt.Packet.size;
  Node.send t.node pkt;
  if not (Engine.is_pending t.rto_timer) then arm_rto t

(* One segment the window currently allows, if any: lost segments first,
   then new data.  The option/pair result is the send decision — one
   2-word pair per segment dispatched, dwarfed by the packet it sends. *)
and next_sendable t =
  let retx =
    if t.lost_pending > 0 then Seg_store.first_lost t.segments ~from:t.snd_una
    else None
  in
  match retx with
  | Some seg -> Some (seg, true)
  | None ->
    let avail = available_bytes t in
    if t.snd_nxt >= avail then None
    else begin
      let len = min t.mss (avail - t.snd_nxt) in
      let seg = Seg_store.make ~seq:t.snd_nxt ~len in
      Some (seg, false)
    end
[@@leotp.allow "hot-path-may-alloc"]

and pump t = if not t.finished then pump_loop t (Engine.now t.engine)

(* Recursive send loop (no while+ref: [pump] runs per ack and per pacing
   timer, and a local [ref] is a minor-heap cell).  Stops when the window
   or pacing gate closes or nothing is sendable. *)
and pump_loop t now =
  let cwnd = t.cc.Cc.cwnd () in
  match next_sendable t with
  | None -> ()
  | Some (seg, is_retx) ->
    if float_of_int (t.inflight + seg.len) > cwnd then ()
    else begin
      match t.cc.Cc.pacing_rate () with
      | Some rate when rate > 0.0 ->
        if now < t.next_send_time then begin
          if not (Engine.is_pending t.pump_timer) then
            Engine.arm_at t.pump_timer ~time:t.next_send_time
        end
        else begin
          t.next_send_time <-
            Float.max now t.next_send_time
            +. (float_of_int (seg.len + Wire.header_bytes) /. rate);
          dispatch t seg is_retx;
          pump_loop t now
        end
      | Some _ | None ->
        dispatch t seg is_retx;
        pump_loop t now
    end

and dispatch t seg is_retx =
  if not is_retx then begin
    Seg_store.push_back t.segments seg;
    t.snd_nxt <- max t.snd_nxt (seg.seq + seg.len)
  end;
  send_segment t seg ~retx:is_retx

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Flow_metrics.set_finished t.metrics (Engine.now t.engine);
    Engine.cancel t.rto_timer;
    Engine.cancel t.pump_timer;
    t.on_complete ()
  end

let create engine ~node ~dst ~flow ~cc ?(mss = Wire.default_mss)
    ?(source = Unlimited) ?metrics ?(on_complete = fun () -> ())
    ?first_sent_of () =
  let metrics =
    match metrics with Some m -> m | None -> Flow_metrics.create ~flow
  in
  let now = Engine.now engine in
  (* The timers' actions close over the record, so it starts with a
     stand-in that is replaced before [create] returns. *)
  let unset = Engine.timer engine ignore in
  let t =
    {
      engine;
      node;
      who = "tcp:" ^ Node.name node;
      dst;
      flow;
      mss;
      cc = Cc.create cc ~mss ~now;
      rto = Leotp_util.Rto.create ~min_rto:0.2 ();
      source;
      metrics;
      on_complete;
      first_sent_of = (fun ~pos:_ ~len:_ -> (now, false));
      segments = Seg_store.create ();
      snd_nxt = 0;
      snd_una = 0;
      inflight = 0;
      lost_pending = 0;
      high_sacked = 0;
      recovery_point = 0;
      delivered = 0;
      bw_clock = now;
      bw_delivered = 0;
      rto_timer = unset;
      rto_armed_at = now;
      rto_floor = 0.0;
      pump_timer = unset;
      next_send_time = now;
      finished = false;
      started = false;
    }
  in
  (match first_sent_of with
  | Some f -> t.first_sent_of <- f
  | None ->
    t.first_sent_of <-
      (fun ~pos ~len ->
        match Seg_store.find t.segments pos with
        | Some seg when seg.len = len -> (seg.first_sent, seg.retx_count > 0)
        | _ -> (Engine.now engine, false)));
  t.rto_timer <- Engine.timer engine (fun () -> on_rto_fire t);
  t.pump_timer <- Engine.timer engine (fun () -> pump t);
  t

(* Per-ack bookkeeping allocates a handful of short-lived closures and
   accumulator cells for the [Seg_store] callback scans; the per-packet
   forwarding path stays allocation-free, and un-generalizing the store's
   callbacks would duplicate its scan logic here. *)
let handle_ack t pkt =
  if (not (Wire.is_ack_seg pkt)) || t.finished then
    Leotp_net.Packet_pool.release pkt
  else begin
    let cum_ack = Wire.cum_ack pkt in
    let now = Engine.now t.engine in
    (* [>=], not [>]: a segment echoed within the same simulated instant
       is a (zero) sample, and a [ts_echo] of exactly 0.0 is a valid
       echo of a packet sent at simulation start (the presence flag, not
       a sentinel, says whether the echo exists). *)
    let has_rtt = Wire.has_ts_echo pkt && now >= Wire.ts_echo pkt in
    let rtt = if has_rtt then now -. Wire.ts_echo pkt else 0.0 in
    if has_rtt then Leotp_util.Rto.observe t.rto rtt;
    let acked_bytes = ref 0 in
    (* Cumulative progress: drop every segment entirely below cum_ack. *)
    if cum_ack > t.snd_una then begin
      (* A segment straddling cum_ack (seq < cum_ack < seq + len) has only
         its head acknowledged: [drop_below] truncates it in place and the
         tail (with the segment's loss/sack state) stays outstanding.
         Dropping it whole would under-count inflight and silently un-send
         the tail. *)
      Seg_store.drop_below t.segments ~cum:cum_ack
        ~on_drop:(fun seg ->
          if not seg.sacked then acked_bytes := !acked_bytes + seg.len;
          if seg.lost then t.lost_pending <- max 0 (t.lost_pending - 1)
          else if not seg.sacked then
            t.inflight <- max 0 (t.inflight - seg.len))
        ~on_straddle:(fun seg head ->
          if not seg.sacked then begin
            acked_bytes := !acked_bytes + head;
            if not seg.lost then t.inflight <- max 0 (t.inflight - head)
          end);
      t.snd_una <- cum_ack;
      Leotp_util.Rto.reset_backoff t.rto;
      arm_rto t
    end;
    (* Selective acknowledgements: only scan the covered range.  Ranges
       live in the ack's fixed slots — no list to walk. *)
    for i = 0 to Wire.sack_count pkt - 1 do
      let lo = Wire.sack_lo pkt i and hi = Wire.sack_hi pkt i in
      Seg_store.iter_from_while t.segments ~from:lo (fun seg ->
          if seg.seq + seg.len > hi then false
          else begin
            if not seg.sacked then begin
              seg.sacked <- true;
              acked_bytes := !acked_bytes + seg.len;
              if seg.lost then t.lost_pending <- max 0 (t.lost_pending - 1)
              else t.inflight <- max 0 (t.inflight - seg.len);
              seg.lost <- false
            end;
            true
          end);
      t.high_sacked <- max t.high_sacked hi
    done;
    t.high_sacked <- max t.high_sacked cum_ack;
    t.delivered <- t.delivered + !acked_bytes;
    (* FACK loss detection: everything sufficiently below the highest
       selective ack is lost.  The scan stops at the first segment that is
       too recent (sequence order = send order here). *)
    let newly_lost = ref false in
    let srtt =
      match Leotp_util.Rto.srtt t.rto with Some r -> r | None -> 0.1
    in
    Seg_store.iter_from_while t.segments ~from:t.snd_una (fun seg ->
        if seg.seq + seg.len + dupthresh_bytes t <= t.high_sacked then begin
          (* A segment already retransmitted is only declared lost again
             once a full SRTT has passed since that retransmission —
             otherwise every ACK re-marks it and the sender spins on
             duplicate retransmissions. *)
          if
            (not seg.sacked)
            && (not seg.lost)
            && (seg.retx_count = 0 || now -. seg.last_sent > srtt)
          then begin
            mark_lost t seg;
            newly_lost := true
          end;
          true
        end
        else false);
    if !newly_lost && t.snd_una >= t.recovery_point then begin
      t.recovery_point <- t.snd_nxt;
      t.cc.Cc.on_loss ~now ~inflight:t.inflight
    end;
    (* Delivery-rate sample for model-based controllers.  Sampled over a
       minimum interval: ack compression can deliver a window's worth of
       acks microseconds apart, and a delta-based estimate over such a
       span poisons BBR's max-bandwidth filter with absurd rates. *)
    let bw_sample =
      let min_interval =
        match Leotp_util.Rto.srtt t.rto with
        | Some s -> Float.max 0.001 (s /. 8.0)
        | None -> 0.001
      in
      if now -. t.bw_clock >= min_interval && t.delivered > t.bw_delivered
      then begin
        let sample =
          float_of_int (t.delivered - t.bw_delivered) /. (now -. t.bw_clock)
        in
        t.bw_clock <- now;
        t.bw_delivered <- t.delivered;
        Some sample
      end
      else None
    in
    if !acked_bytes > 0 || has_rtt then
      t.cc.Cc.on_ack
        {
          Cc.now;
          acked_bytes = !acked_bytes;
          rtt_sample = (if has_rtt then Some rtt else None);
          bw_sample;
          inflight = t.inflight;
        };
    (* Emitted before [pump] so the oracle sees the post-ack claim ahead
       of any (re)transmissions the ack unlocks.  The list/option shapes
       exist only here, under the recorder gate — digest-identical to the
       old wire format, allocation-free when nobody is observing. *)
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.emit
        (Leotp_net.Trace.Ack_processed
           {
             who = t.who;
             flow = t.flow;
             cc = t.cc.Cc.name;
             phase = t.cc.Cc.phase ();
             cum_ack;
             sacks = Wire.sack_list pkt;
             rtt = (if has_rtt then Some rtt else None);
             snd_una = t.snd_una;
             inflight = t.inflight;
             lost_pending = t.lost_pending;
             cwnd = t.cc.Cc.cwnd ();
             rto = Leotp_util.Rto.rto t.rto;
           });
    Leotp_net.Packet_pool.release pkt;
    (match total_bytes t with
    | Some n when t.snd_una >= n -> finish t
    | _ -> if Seg_store.is_empty t.segments then Engine.cancel t.rto_timer);
    pump t
  end
[@@leotp.allow "hot-path-may-alloc"]

let start t =
  if not t.started then begin
    t.started <- true;
    Flow_metrics.set_started t.metrics (Engine.now t.engine);
    pump t
  end

let notify_data_available t = if t.started && not t.finished then pump t
let finished t = t.finished
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let inflight t = t.inflight
let srtt t = Leotp_util.Rto.srtt t.rto

let stop t =
  Engine.cancel t.rto_timer;
  Engine.cancel t.pump_timer

let timer_pending t =
  Engine.is_pending t.rto_timer || Engine.is_pending t.pump_timer
