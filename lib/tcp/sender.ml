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
  first_sent_of : pos:int -> len:int -> float * bool;
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
    Leotp_net.Trace.seg_state ~who:t.who ~flow:t.flow ~seq:seg.seq ~len:seg.len
      ~state

let mark_lost t (seg : Seg_store.seg) =
  if (not seg.lost) && not seg.sacked then begin
    seg.lost <- true;
    t.lost_pending <- t.lost_pending + 1;
    t.inflight <- max 0 (t.inflight - seg.len);
    trace_seg t seg Leotp_net.Trace.Seg_lost
  end

(* Mark every un-SACKed segment from rank [i] up lost. *)
let rec lose_all t i =
  if i < Seg_store.length t.segments then begin
    mark_lost t (Seg_store.get t.segments i);
    lose_all t (i + 1)
  end

(* Rank of the first segment from rank [i] up that is marked lost and
   not SACKed (the next retransmission); [Seg_store.length] if none. *)
let rec first_lost t i =
  if i >= Seg_store.length t.segments then i
  else
    let seg = Seg_store.get t.segments i in
    if seg.lost && not seg.sacked then i else first_lost t (i + 1)

(* [finish] disarms the RTO and nothing re-arms it afterwards. *)
let rec arm_rto t =
  if not t.finished then begin
    let timeout = Leotp_util.Rto.rto t.rto in
    t.rto_armed_at <- Engine.now t.engine;
    t.rto_floor <- Leotp_util.Rto.timeout_floor t.rto ~timeout;
    Engine.arm t.rto_timer ~after:timeout
  end

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
    lose_all t 0;
    (* Retransmit the first unacknowledged segment immediately. *)
    let seg = Seg_store.get t.segments 0 in
    if not seg.sacked then send_segment t seg ~retx:true;
    arm_rto t;
    pump t
  end

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
  else seg.times.first_sent <- now;
  seg.times.last_sent <- now;
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

and pump t = if not t.finished then pump_loop t (Engine.now t.engine)

(* Recursive send loop (no while+ref: [pump] runs per ack and per pacing
   timer, and a local [ref] is a minor-heap cell).  Lost segments go
   first, then new data; a new segment is made only once the window and
   pacing gates let it go.  Stops when a gate closes or nothing is
   sendable. *)
and pump_loop t now =
  let i =
    if t.lost_pending > 0 then
      first_lost t (Seg_store.lower_bound t.segments ~from:t.snd_una)
    else Seg_store.length t.segments
  in
  if i < Seg_store.length t.segments then begin
    let seg = Seg_store.get t.segments i in
    if may_send t now ~len:seg.len then begin
      send_segment t seg ~retx:true;
      pump_loop t now
    end
  end
  else begin
    let len = min t.mss (available_bytes t - t.snd_nxt) in
    if len > 0 && may_send t now ~len then begin
      let seg = Seg_store.make ~seq:t.snd_nxt ~len in
      Seg_store.push_back t.segments seg;
      t.snd_nxt <- t.snd_nxt + len;
      send_segment t seg ~retx:false;
      pump_loop t now
    end
  end

(* The window and pacing gates for a [len]-byte segment, read from the
   controller's flat window ([not (_ > cwnd)] lets a NaN window through;
   a rate that is not positive, NaN included, does not pace).  A closed
   pacing gate arms the pacing timer; an open one books the segment's
   transmission time. *)
and may_send t now ~len =
  let w = t.cc.Cc.window in
  (not (float_of_int (t.inflight + len) > w.Cc.cwnd))
  &&
  if not (w.Cc.pacing_rate > 0.0) then true
  else if now < t.next_send_time then begin
    if not (Engine.is_pending t.pump_timer) then
      Engine.arm_at t.pump_timer ~time:t.next_send_time;
    false
  end
  else begin
    t.next_send_time <-
      Float.max now t.next_send_time
      +. (float_of_int (len + Wire.header_bytes) /. w.Cc.pacing_rate);
    true
  end

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
  let segments = Seg_store.create () in
  (* By default a segment carries its own first transmission: the one
     stored at exactly [pos] with length [len]. *)
  let first_sent_of =
    match first_sent_of with
    | Some f -> f
    | None ->
      fun ~pos ~len ->
        let i = Seg_store.lower_bound segments ~from:pos in
        if i = Seg_store.length segments then (Engine.now engine, false)
        else
          let seg = Seg_store.get segments i in
          if seg.seq = pos && seg.len = len then
            (seg.times.first_sent, seg.retx_count > 0)
          else (Engine.now engine, false)
  in
  let cc =
    match cc with
    | Cc.Newreno -> Newreno.create ~mss ~now
    | Cubic -> Cubic.create ~mss ~now
    | Hybla -> Hybla.create ~mss ~now
    | Westwood -> Westwood.create ~mss ~now
    | Vegas -> Vegas.create ~mss ~now
    | Bbr -> Bbr.create ~mss ~now
    | Pcc -> Pcc_vivace.create ~mss ~now
  in
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
      cc;
      rto = Leotp_util.Rto.create ~min_rto:0.2 ();
      source;
      metrics;
      on_complete;
      first_sent_of;
      segments;
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
  t.rto_timer <- Engine.timer engine (fun () -> on_rto_fire t);
  t.pump_timer <- Engine.timer engine (fun () -> pump t);
  t

(* The ack path's walks recurse over ranks and return the bytes they
   acknowledge added to [acked]: no [ref] cell and no closure per ack. *)

(* Cumulative progress: remove every segment entirely below [cum].  A
   segment straddling [cum] (seq < cum < seq + len) has only its head
   acknowledged: it is truncated in place, and its tail (with the
   segment's loss/sack state) stays outstanding.  Dropping it whole
   would under-count inflight and silently un-send the tail. *)
let rec drop_acked t ~cum acked =
  if Seg_store.is_empty t.segments then acked
  else begin
    let seg = Seg_store.get t.segments 0 in
    if seg.seq + seg.len <= cum then begin
      if seg.lost then t.lost_pending <- max 0 (t.lost_pending - 1)
      else if not seg.sacked then t.inflight <- max 0 (t.inflight - seg.len);
      Seg_store.remove t.segments 0;
      drop_acked t ~cum (if seg.sacked then acked else acked + seg.len)
    end
    else if seg.seq < cum then begin
      let head = cum - seg.seq in
      seg.seq <- cum;
      seg.len <- seg.len - head;
      if not (seg.sacked || seg.lost) then
        t.inflight <- max 0 (t.inflight - head);
      if seg.sacked then acked else acked + head
    end
    else acked
  end

(* SACK every segment from rank [i] up that ends at or below [hi]. *)
let rec sack_below t ~hi i acked =
  if i >= Seg_store.length t.segments then acked
  else
    let seg = Seg_store.get t.segments i in
    if seg.seq + seg.len > hi then acked
    else if seg.sacked then sack_below t ~hi (i + 1) acked
    else begin
      seg.sacked <- true;
      if seg.lost then t.lost_pending <- max 0 (t.lost_pending - 1)
      else t.inflight <- max 0 (t.inflight - seg.len);
      seg.lost <- false;
      sack_below t ~hi (i + 1) (acked + seg.len)
    end

(* Selective acknowledgements: only the covered ranks are walked, block
   by block from the ack's fixed slots, raising [high_sacked] after
   each. *)
let rec sack_blocks t pkt k acked =
  if k >= Wire.sack_count pkt then acked
  else begin
    let lo = Wire.sack_lo pkt k and hi = Wire.sack_hi pkt k in
    let acked =
      sack_below t ~hi (Seg_store.lower_bound t.segments ~from:lo) acked
    in
    t.high_sacked <- max t.high_sacked hi;
    sack_blocks t pkt (k + 1) acked
  end

(* FACK loss detection: everything sufficiently below the highest
   selective ack is lost; the walk stops at the first segment that is
   too recent (sequence order = send order here) and says whether it
   declared a loss.  A segment already retransmitted is only declared
   lost again once a full SRTT has passed since that retransmission;
   otherwise every ACK re-marks it and the sender spins on duplicate
   retransmissions. *)
let rec fack t ~now ~srtt i newly_lost =
  if i >= Seg_store.length t.segments then newly_lost
  else
    let seg = Seg_store.get t.segments i in
    if seg.seq + seg.len + dupthresh_bytes t > t.high_sacked then newly_lost
    else begin
      let lost =
        (not seg.sacked)
        && (not seg.lost)
        && (seg.retx_count = 0 || now -. seg.times.last_sent > srtt)
      in
      if lost then mark_lost t seg;
      fack t ~now ~srtt (i + 1) (newly_lost || lost)
    end

(* The walks above allocate nothing: an ack allocates what it hands the
   controller ([Cc.ack_info] and its options) and what the sends it
   unlocks allocate. *)
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
    if has_rtt then Leotp_util.Rto.observe t.rto ~now ~sent:(Wire.ts_echo pkt);
    let acked_bytes =
      if cum_ack > t.snd_una then begin
        let acked = drop_acked t ~cum:cum_ack 0 in
        t.snd_una <- cum_ack;
        Leotp_util.Rto.reset_backoff t.rto;
        arm_rto t;
        acked
      end
      else 0
    in
    let acked_bytes = sack_blocks t pkt 0 acked_bytes in
    t.high_sacked <- max t.high_sacked cum_ack;
    t.delivered <- t.delivered + acked_bytes;
    let srtt =
      match Leotp_util.Rto.srtt t.rto with Some r -> r | None -> 0.1
    in
    let una = Seg_store.lower_bound t.segments ~from:t.snd_una in
    let newly_lost = fack t ~now ~srtt una false in
    if newly_lost && t.snd_una >= t.recovery_point then begin
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
    if acked_bytes > 0 || has_rtt then
      t.cc.Cc.on_ack
        {
          Cc.now;
          acked_bytes;
          rtt_sample = (if has_rtt then Some rtt else None);
          bw_sample;
          inflight = t.inflight;
        };
    (* Emitted before [pump] so the oracle sees the post-ack claim ahead
       of any (re)transmissions the ack unlocks.  The list/option shapes
       exist only here, under the recorder gate — digest-identical to the
       old wire format, allocation-free when nobody is observing, and not
       built for a recorder that only folds (no fold reads acks). *)
    if Leotp_net.Trace.on () && Leotp_net.Trace.events_on () then
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
             cwnd = t.cc.Cc.window.Cc.cwnd;
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
