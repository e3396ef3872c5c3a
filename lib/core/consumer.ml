module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Node = Leotp_net.Node
module Interval_set = Leotp_util.Interval_set
module Seg_store = Leotp_util.Seg_store

type t = {
  engine : Engine.t;
  config : Config.t;
  node : Node.t;
  who : string;  (** this endpoint's name in trace events *)
  producer : int;
  flow : int;
  total_bytes : int option;
  metrics : Leotp_net.Flow_metrics.t;
  on_complete : unit -> unit;
  on_prefix : pos:int -> len:int -> unit;
  cc : Hop_cc.t;
  shr : Shr.t;
  rto : Leotp_util.Rto.t;
  outstanding : Seg_store.t;
      (** one disjoint range per Interest, last requested at [last_sent] *)
  mutable outstanding_bytes : int;
  mutable stale_bytes : int;
      (** outstanding ranges that already hit a TR timeout (presumed lost,
          repair in flight); they do not occupy pipeline capacity so the
          cap ignores them.  The RTO adapts to true request-to-data
          delays, so producer-side queueing does not classify as loss. *)
  mutable next_to_request : int;
  received : Interval_set.t;
  mutable prefix : int;  (** delivered in-order prefix length *)
  mutable interests_sent : int;
  mutable interest_retx : int;
  pace : float array;
      (** the pacer's next send time and the advertised rate
          ([next_send_slot], [rate_slot]): a float field of this record
          would box every write, and a returned float is boxed *)
  mutable last_shared_backoff : float;
  mutable scan_timer : Engine.timer;  (** TR scan (§III-B) *)
  mutable pump_timer : Engine.timer;  (** eq (10) pacing *)
  mutable completed : bool;
  mutable started : bool;
}

(* [pace]'s slots: when the pacer next lets an Interest out, and the
   advertised rate, bytes/s. *)
let next_send_slot = 0
let rate_slot = 1

(* The Consumer has no sending buffer: its application drains data
   instantly, so eq (10) reduces to the window rate cwnd/RTT, written
   straight into the Interest. *)
let send_interest t ~lo ~hi ~retx =
  let now = Engine.now t.engine in
  let pkt =
    Wire.interest_packet ~config:t.config ~src:(Node.id t.node) ~dst:t.producer
      ~flow:t.flow ~lo ~hi ~timestamp:now ~send_rate:0.0 ~retx
  in
  Hop_cc.rate_into t.cc ~now pkt.Packet.f Wire.send_rate_slot;
  t.interests_sent <- t.interests_sent + 1;
  if retx then begin
    t.interest_retx <- t.interest_retx + 1;
    Leotp_net.Flow_metrics.on_retransmit t.metrics
  end;
  Leotp_net.Flow_metrics.on_send t.metrics ~bytes:pkt.Packet.size;
  Node.send t.node pkt

let resend t (st : Seg_store.seg) =
  let now = Engine.now t.engine in
  st.retx_count <- st.retx_count + 1;
  if st.retx_count = 1 then t.stale_bytes <- t.stale_bytes + st.len;
  st.times.last_sent <- now;
  (* Resending interval grows by 1.5x per timeout (paper §III-B), with a
     10 s ceiling so a long outage doesn't push deadlines out forever. *)
  let timeout =
    Float.min 10.0
      (Leotp_util.Rto.base_rto t.rto
      *. (t.config.Config.tr_backoff ** float_of_int st.retx_count))
  in
  st.times.due <- now +. timeout;
  st.times.floor <- Leotp_util.Rto.timeout_floor t.rto ~timeout;
  send_interest t ~lo:st.seq ~hi:(st.seq + st.len) ~retx:true

(* Resend every Interest due by [now], in ascending range order, and
   say whether any was. *)
let rec expire t ~now i any =
  if i >= Seg_store.length t.outstanding then any
  else begin
    let st = Seg_store.get t.outstanding i in
    let fired = now >= st.times.due in
    if fired then begin
      if Leotp_net.Trace.on () then
        Leotp_net.Trace.emit
          (Leotp_net.Trace.Rto_fire
             {
               who = t.who;
               elapsed = now -. st.times.last_sent;
               floor = st.times.floor;
             });
      resend t st
    end;
    expire t ~now (i + 1) (any || fired)
  end

(* TR: periodic scan of unsatisfied Interests (paper §III-B).  A scan
   that found timeouts also backs off the shared estimator (RFC 6298
   §5.5): under Karn's rule delayed-but-not-lost data never produces
   samples, so without this the base RTO stays small and every new
   Interest times out spuriously. *)
let scan t =
  let now = Engine.now t.engine in
  (* At most one shared backoff per RTO epoch — per-scan compounding
     would explode the base timeout within a second. *)
  if
    expire t ~now 0 false
    && now -. t.last_shared_backoff >= Leotp_util.Rto.rto t.rto
  then begin
    t.last_shared_backoff <- now;
    Leotp_util.Rto.backoff t.rto
  end

let ensure_scan_timer t =
  if (not t.completed) && not (Engine.is_pending t.scan_timer) then
    Engine.arm t.scan_timer ~after:t.config.Config.tr_scan_interval

let want_more t =
  match t.total_bytes with
  | Some n -> t.next_to_request < n
  | None -> true

(* Issue new Interests paced at the advertised rate (eq 10).  LEOTP's
   control is rate-based: cwnd is the intermediate of eq (8) and the pull
   pipeline spans the whole path, so outstanding data legitimately exceeds
   one hop's window.  A safety cap of ~2x the path's
   bandwidth-delay product (path RTT from the TR estimator) bounds the
   flood if the path black-holes.  The loop recurses (no while+ref: it
   runs per received Data and per pacing timer, and a local [ref] is a
   minor-heap cell) and stops when the window or pacing gate closes or
   the stream is fully requested. *)
let rec pump_loop t now =
  if want_more t then begin
    (* Window over the pull loop: outstanding (non-lost) data is
       bounded by cwnd, giving the self-clocking a pure rate pacer
       lacks.  Ranges already declared lost (TR timeout) are being
       repaired and do not occupy the pipeline. *)
    let cap = (Hop_cc.window t.cc).Hop_cc.cwnd in
    let hi =
      match t.total_bytes with
      | Some n -> min n (t.next_to_request + t.config.Config.mss)
      | None -> t.next_to_request + t.config.Config.mss
    in
    let len = hi - t.next_to_request in
    let occupying = t.outstanding_bytes - t.stale_bytes in
    (* Hard bound including presumed-lost ranges: spurious timeouts
       must not reopen the window indefinitely (that would rebuild
       the invisible Producer backlog the window exists to bound). *)
    if
      float_of_int (occupying + len) > cap
      || float_of_int (t.outstanding_bytes + len) > 2.0 *. cap
    then ()
    else if now < t.pace.(next_send_slot) then begin
      if not (Engine.is_pending t.pump_timer) then
        Engine.arm_at t.pump_timer ~time:t.pace.(next_send_slot)
    end
    else begin
      Hop_cc.rate_into t.cc ~now t.pace rate_slot;
      let rate = Float.max 1000.0 t.pace.(rate_slot) in
      t.pace.(next_send_slot) <-
        Float.max now t.pace.(next_send_slot) +. (float_of_int len /. rate);
      let lo = t.next_to_request in
      t.next_to_request <- hi;
      let st = Seg_store.make ~seq:lo ~len in
      st.times.last_sent <- now;
      Leotp_util.Rto.stamp t.rto ~now st.times;
      Seg_store.push_back t.outstanding st;
      t.outstanding_bytes <- t.outstanding_bytes + len;
      send_interest t ~lo ~hi ~retx:false;
      pump_loop t now
    end
  end

let pump t =
  if not t.completed then begin
    pump_loop t (Engine.now t.engine);
    ensure_scan_timer t
  end

(* A scan tick: expire overdue Interests, then pump, which re-arms the
   tick.  The tick is also the liveness backstop for a window-blocked
   pump (nothing else fires when every outstanding Interest's response
   was lost). *)
let on_scan t =
  if not t.completed then begin
    scan t;
    pump t
  end

let finish t =
  if not t.completed then begin
    t.completed <- true;
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.complete ~node:(Node.id t.node) ~flow:t.flow
        ~bytes:t.prefix;
    Leotp_net.Flow_metrics.set_finished t.metrics (Engine.now t.engine);
    Engine.cancel t.scan_timer;
    Engine.cancel t.pump_timer;
    t.on_complete ()
  end

(* The outstanding Interests are disjoint and sorted, so the ones
   overlapping [lo, hi) are the ranks from [top_overlap] down to the
   first that ends at or before [lo].  The walks below go down from
   there, highest range first, as the loss-signalling order requires;
   removing a rank leaves the ranks below it in place. *)
let top_overlap t ~hi = Seg_store.lower_bound t.outstanding ~from:hi - 1

let overlaps t ~lo i =
  i >= 0
  &&
  let st = Seg_store.get t.outstanding i in
  st.seq + st.len > lo

let rec extend_due t ~lo ~due i =
  if overlaps t ~lo i then begin
    let st = Seg_store.get t.outstanding i in
    st.times.due <- Float.max st.times.due due;
    extend_due t ~lo ~due (i - 1)
  end

let rec resend_down t ~lo i =
  if overlaps t ~lo i then begin
    resend t (Seg_store.get t.outstanding i);
    resend_down t ~lo (i - 1)
  end

(* Resolve the Interests [lo, hi) satisfies.  The Consumer's controller
   (eqs 6-8) runs on the full pull-loop RTT — its Interest emission to
   Data arrival.  When the adjacent Midnode's cache responds this IS the
   paper's hopRTT; for end-to-end responses it is the path RTT, which
   additionally makes Responder-buffer queueing visible to eq (7). *)
let rec satisfy t ~now ~lo ~hi i =
  if overlaps t ~lo i then begin
    let st = Seg_store.get t.outstanding i in
    if st.seq >= lo && st.seq + st.len <= hi then begin
      (* Karn: RTT samples only from un-retransmitted Interests. *)
      if st.retx_count = 0 then begin
        Leotp_util.Rto.observe t.rto ~now ~sent:st.times.last_sent;
        Hop_cc.on_loop t.cc ~now ~sent:st.times.last_sent ~bytes:st.len
      end
      else
        (* Retransmitted ranges still count toward delivered bytes for
           the throughput estimate, without an RTT sample (Karn). *)
        Hop_cc.on_delivered t.cc ~now ~bytes:st.len;
      Seg_store.remove t.outstanding i;
      t.outstanding_bytes <- t.outstanding_bytes - st.len;
      if st.retx_count >= 1 then
        t.stale_bytes <- max 0 (t.stale_bytes - st.len)
    end;
    satisfy t ~now ~lo ~hi (i - 1)
  end

let rec resend_holes t = function
  | [] -> ()
  | (lo, hi) :: holes ->
    resend_down t ~lo (top_overlap t ~hi);
    resend_holes t holes

let handle_vph t ~lo ~hi =
  (* §III-B: "when the Consumer receives a header, it will reset the
     timestamp of the corresponding Interest to avoid the timeout being
     triggered before the data retransmitted by SHR arrives." *)
  let due = Engine.now t.engine +. Leotp_util.Rto.base_rto t.rto in
  extend_due t ~lo ~due (top_overlap t ~hi);
  ignore (Shr.on_packet t.shr ~lo ~hi)

(* The Data's first-send time waits in the metrics' slot
   ([handle_packet]). *)
let handle_data t ~lo ~hi ~retx =
  let now = Engine.now t.engine in
  satisfy t ~now ~lo ~hi (top_overlap t ~hi);
  (* Deliver fresh bytes. *)
  let fresh = Interval_set.add t.received ~lo ~hi in
  if fresh > 0 then
    Leotp_net.Flow_metrics.on_deliver t.metrics ~now ~bytes:fresh ~retx;
  (* In-order prefix growth feeds byte-stream consumers (gateways). *)
  let new_prefix = Interval_set.first_missing t.received ~lo:0 in
  if new_prefix > t.prefix then begin
    let pos = t.prefix in
    t.prefix <- new_prefix;
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.deliver ~node:(Node.id t.node) ~flow:t.flow ~pos
        ~len:(new_prefix - pos);
    t.on_prefix ~pos ~len:(new_prefix - pos)
  end;
  (* Consumer-side SHR: confirmed holes are re-requested immediately. *)
  resend_holes t (Shr.on_packet t.shr ~lo ~hi).Shr.expired_holes;
  (* Completion. *)
  (match t.total_bytes with
  | Some n when Interval_set.covers t.received ~lo:0 ~hi:n -> finish t
  | _ -> ());
  pump t

(* Terminal handler: the Consumer owns the delivered packet and recycles
   it once the slot values are extracted.  The first-send time goes
   straight into the metrics' slot, as a float argument would be
   boxed. *)
let handle_packet t pkt =
  if Wire.is_data pkt && pkt.Packet.flow = t.flow then begin
    let lo = Wire.lo pkt and hi = Wire.hi pkt in
    let length = Wire.length pkt in
    let retx = Wire.retx pkt in
    (Leotp_net.Flow_metrics.sent t.metrics).(0) <-
      pkt.Packet.f.(Wire.first_sent_slot);
    Leotp_net.Packet_pool.release pkt;
    if length = 0 then handle_vph t ~lo ~hi else handle_data t ~lo ~hi ~retx
  end
  else Leotp_net.Packet_pool.release pkt

let create engine ~config ~node ~producer ~flow ?total_bytes ?metrics
    ?(on_complete = fun () -> ()) ?(on_prefix = fun ~pos:_ ~len:_ -> ()) () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Leotp_net.Flow_metrics.create ~flow
  in
  (* The timers' actions close over the record, so it starts with a
     stand-in that is replaced before [create] returns. *)
  let unset = Engine.timer engine ignore in
  let t =
    {
      engine;
      config;
      node;
      who = "consumer:" ^ Node.name node;
      producer;
      flow;
      total_bytes;
      metrics;
      on_complete;
      on_prefix;
      cc =
        Hop_cc.create ~pipe_full_exit:false ~config ~now:(Engine.now engine) ();
      shr = Shr.create ~config;
      rto =
        Leotp_util.Rto.create ~min_rto:0.05 ~max_rto:2.0
          ~backoff_factor:config.Config.tr_backoff ();
      last_shared_backoff = 0.0;
      outstanding = Seg_store.create ();
      outstanding_bytes = 0;
      stale_bytes = 0;
      next_to_request = 0;
      received = Interval_set.create ();
      prefix = 0;
      interests_sent = 0;
      interest_retx = 0;
      pace = [| Engine.now engine; 0.0 |];
      scan_timer = unset;
      pump_timer = unset;
      completed = false;
      started = false;
    }
  in
  t.scan_timer <- Engine.timer engine (fun () -> on_scan t);
  t.pump_timer <- Engine.timer engine (fun () -> pump t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Leotp_net.Flow_metrics.set_started t.metrics (Engine.now t.engine);
    pump t
  end

let complete t = t.completed
let received_bytes t = Interval_set.cardinal t.received
let delivered_prefix t = t.prefix
let interests_sent t = t.interests_sent
let interest_retx t = t.interest_retx

let stop t =
  Engine.cancel t.scan_timer;
  Engine.cancel t.pump_timer;
  t.completed <- true
