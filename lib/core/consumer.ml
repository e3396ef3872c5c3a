module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Node = Leotp_net.Node
module Interval_set = Leotp_util.Interval_set
module IntMap = Map.Make (Int)

type interest_state = {
  lo : int;
  hi : int;
  mutable last_requested : float;
  mutable deadline : float;
  mutable retx_count : int;
  mutable floor_bound : float;
      (** min (SRTT + 4*RTTVAR, armed timeout) when the deadline was set;
          a TR timeout firing earlier than this violates RFC 6298 *)
}

type t = {
  engine : Engine.t;
  config : Config.t;
  node : Node.t;
  producer : int;
  flow : int;
  total_bytes : int option;
  metrics : Leotp_net.Flow_metrics.t;
  on_complete : unit -> unit;
  on_prefix : pos:int -> len:int -> unit;
  cc : Hop_cc.t;
  shr : Shr.t;
  rto : Leotp_util.Rto.t;
  mutable outstanding : interest_state IntMap.t;  (** keyed by range lo *)
  mutable outstanding_bytes : int;
  mutable stale_bytes : int;
      (** outstanding ranges that already hit a TR timeout (presumed lost,
          repair in flight); they do not occupy pipeline capacity so the
          cap ignores them.  The RTO adapts to true request-to-data
          delays, so producer-side queueing does not classify as loss. *)
  mutable next_to_request : int;
  mutable received : Interval_set.t;
  mutable prefix : int;  (** delivered in-order prefix length *)
  mutable interests_sent : int;
  mutable interest_retx : int;
  mutable next_send_time : float;
  mutable last_shared_backoff : float;
  mutable scan_timer : Engine.timer option;
  mutable pump_timer : Engine.timer option;
  mutable completed : bool;
  mutable started : bool;
}

let create engine ~config ~node ~producer ~flow ?total_bytes ?metrics
    ?(on_complete = fun () -> ()) ?(on_prefix = fun ~pos:_ ~len:_ -> ()) () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Leotp_net.Flow_metrics.create ~flow
  in
  {
    engine;
    config;
    node;
    producer;
    flow;
    total_bytes;
    metrics;
    on_complete;
    on_prefix;
    cc = Hop_cc.create ~pipe_full_exit:false ~config ~now:(Engine.now engine) ();
    shr = Shr.create ~config;
    rto =
      Leotp_util.Rto.create ~min_rto:0.05 ~max_rto:2.0
        ~backoff_factor:config.Config.tr_backoff ();
    last_shared_backoff = 0.0;
    outstanding = IntMap.empty;
    outstanding_bytes = 0;
    stale_bytes = 0;
    next_to_request = 0;
    received = Interval_set.empty;
    prefix = 0;
    interests_sent = 0;
    interest_retx = 0;
    next_send_time = Engine.now engine;
    scan_timer = None;
    pump_timer = None;
    completed = false;
    started = false;
  }

let advertised_rate t =
  (* The Consumer has no sending buffer: its application drains data
     instantly, so eq (10) reduces to the window rate cwnd/RTT. *)
  Hop_cc.rate t.cc ~now:(Engine.now t.engine)

let send_interest t ~lo ~hi ~retx =
  let now = Engine.now t.engine in
  let pkt =
    Wire.interest_packet ~config:t.config ~src:(Node.id t.node) ~dst:t.producer
      ~flow:t.flow ~lo ~hi ~timestamp:now ~send_rate:(advertised_rate t) ~retx
  in
  t.interests_sent <- t.interests_sent + 1;
  if retx then begin
    t.interest_retx <- t.interest_retx + 1;
    Leotp_net.Flow_metrics.on_retransmit t.metrics
  end;
  Leotp_net.Flow_metrics.on_send t.metrics ~bytes:pkt.Packet.size;
  Node.send t.node pkt

(* The RFC 6298 floor the invariant checker holds TR timeouts to: a
   timeout must not fire before SRTT + 4*RTTVAR (clamped by the timeout
   actually armed, which the estimator's min/max bounds may pull below
   the raw formula). *)
let rto_floor t ~timeout =
  (* nested matches, not a tuple pattern: this runs per issued Interest
     and a 2-tuple scrutinee is a minor-heap allocation *)
  match Leotp_util.Rto.srtt t.rto with
  | None -> 0.0
  | Some s -> (
    match Leotp_util.Rto.rttvar t.rto with
    | Some v -> Float.min (s +. (4.0 *. v)) timeout
    | None -> 0.0)

let reissue t st =
  let now = Engine.now t.engine in
  st.retx_count <- st.retx_count + 1;
  if st.retx_count = 1 then t.stale_bytes <- t.stale_bytes + (st.hi - st.lo);
  st.last_requested <- now;
  (* Resending interval grows by 1.5x per timeout (paper §III-B), with a
     10 s ceiling so a long outage doesn't push deadlines out forever. *)
  let timeout =
    Float.min 10.0
      (Leotp_util.Rto.base_rto t.rto
      *. (t.config.Config.tr_backoff ** float_of_int st.retx_count))
  in
  st.deadline <- now +. timeout;
  st.floor_bound <- rto_floor t ~timeout;
  send_interest t ~lo:st.lo ~hi:st.hi ~retx:true

(* TR: periodic scan of unsatisfied Interests (paper §III-B).  A scan
   that found timeouts also backs off the shared estimator (RFC 6298
   §5.5): under Karn's rule delayed-but-not-lost data never produces
   samples, so without this the base RTO stays small and every new
   Interest times out spuriously. *)
(* Runs per TR scan tick (a timer period), not per packet — the
   accumulator cell and iteration closure are off the per-packet budget. *)
let scan t =
  let now = Engine.now t.engine in
  let any = ref false in
  IntMap.iter
    (fun _ st ->
      if now >= st.deadline then begin
        any := true;
        if Leotp_net.Trace.on () then
          Leotp_net.Trace.emit
            (Leotp_net.Trace.Rto_fire
               {
                 who = "consumer:" ^ Node.name t.node;
                 elapsed = now -. st.last_requested;
                 floor = st.floor_bound;
               });
        reissue t st
      end)
    t.outstanding;
  (* At most one shared backoff per RTO epoch — per-scan compounding
     would explode the base timeout within a second. *)
  if !any && now -. t.last_shared_backoff >= Leotp_util.Rto.rto t.rto then begin
    t.last_shared_backoff <- now;
    Leotp_util.Rto.backoff t.rto
  end
[@@leotp.allow "hot-path-may-alloc"]

(* Re-arming the scan timer allocates its action closure: one per scan
   period, inherent to the [Engine.schedule] API. *)
let rec ensure_scan_timer ~pump t =
  if (not t.completed) && t.scan_timer = None then
    t.scan_timer <-
      Some
        (Engine.schedule t.engine ~after:t.config.Config.tr_scan_interval
           (fun () ->
             t.scan_timer <- None;
             if not t.completed then begin
               scan t;
               (* The periodic tick is also the liveness backstop for a
                  window-blocked pump (nothing else fires when every
                  outstanding Interest's response was lost). *)
               pump t;
               ensure_scan_timer ~pump t
             end))
[@@leotp.allow "hot-path-may-alloc"]

let want_more t =
  match t.total_bytes with
  | Some n -> t.next_to_request < n
  | None -> true

(* Issue new Interests paced at the advertised rate (eq 10).  LEOTP's
   control is rate-based: cwnd is the intermediate of eq (8) and the pull
   pipeline spans the whole path, so outstanding data legitimately exceeds
   one hop's window.  A safety cap of ~2x the path's
   bandwidth-delay product (path RTT from the TR estimator) bounds the
   flood if the path black-holes. *)
let rec pump t =
  if not t.completed then begin
    pump_loop t (Engine.now t.engine);
    ensure_scan_timer ~pump t
  end

(* Recursive issue loop (no while+ref: [pump] runs per received Data and
   per pacing timer, and a local [ref] is a minor-heap cell).  Stops when
   the window or pacing gate closes or the stream is fully requested. *)
and pump_loop t now =
  if want_more t then begin
    (* Window over the pull loop: outstanding (non-lost) data is
       bounded by cwnd, giving the self-clocking a pure rate pacer
       lacks.  Ranges already declared lost (TR timeout) are being
       repaired and do not occupy the pipeline. *)
    let cap = Hop_cc.cwnd t.cc in
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
    else if now < t.next_send_time then schedule_pump t ~at:t.next_send_time
    else begin
      let rate = Float.max 1000.0 (advertised_rate t) in
      t.next_send_time <-
        Float.max now t.next_send_time +. (float_of_int len /. rate);
      let lo = t.next_to_request in
      t.next_to_request <- hi;
      let timeout = Leotp_util.Rto.rto t.rto in
      let st =
        (* one state record per issued Interest — its identity for the
           whole timeout/retransmission lifetime *)
        ({
           lo;
           hi;
           last_requested = now;
           deadline = now +. timeout;
           retx_count = 0;
           floor_bound = rto_floor t ~timeout;
         }
        [@leotp.allow "hot-path-may-alloc"])
      in
      t.outstanding <- IntMap.add lo st t.outstanding;
      t.outstanding_bytes <- t.outstanding_bytes + len;
      send_interest t ~lo ~hi ~retx:false;
      pump_loop t now
    end
  end

and schedule_pump t ~at =
  match t.pump_timer with
  | Some timer when Engine.is_pending timer -> ()
  | _ ->
    t.pump_timer <-
      (* arming the pacing timer allocates its action closure: one per
         pacing gap, inherent to the [Engine.schedule_at] API *)
      Some
        (Engine.schedule_at t.engine ~time:at
           ((fun () ->
              t.pump_timer <- None;
              pump t) [@leotp.allow "hot-path-may-alloc"]))

let finish t =
  if not t.completed then begin
    t.completed <- true;
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.emit
        (Leotp_net.Trace.Complete
           { node = Node.id t.node; flow = t.flow; bytes = t.prefix });
    Leotp_net.Flow_metrics.set_finished t.metrics (Engine.now t.engine);
    (match t.scan_timer with Some tm -> Engine.cancel tm | None -> ());
    (match t.pump_timer with Some tm -> Engine.cancel tm | None -> ());
    t.on_complete ()
  end

(* Interests overlapping [lo, hi).  Called once per received VPH — loss
   signalling, not the per-Data steady state — so the accumulator and
   sequence cells are off the per-packet budget. *)
let overlapping_outstanding t ~lo ~hi =
  let acc = ref [] in
  let rec go s =
    match s () with
    | Seq.Nil -> ()
    | Seq.Cons ((_, st), rest) ->
      if st.lo < hi then begin
        if st.hi > lo then acc := st :: !acc;
        go rest
      end
  in
  (* Entries are MSS-aligned, so start the scan one MSS below. *)
  go (IntMap.to_seq_from (lo - t.config.Config.mss) t.outstanding);
  !acc
[@@leotp.allow "hot-path-may-alloc"]

(* Runs once per received VPH — SHR loss signalling, not the per-Data
   steady state; the overlap list and deadline-reset closure are the cost
   of the paper's timeout-suppression rule. *)
let handle_vph t ~lo ~hi =
  (* §III-B: "when the Consumer receives a header, it will reset the
     timestamp of the corresponding Interest to avoid the timeout being
     triggered before the data retransmitted by SHR arrives." *)
  let now = Engine.now t.engine in
  List.iter
    (fun st -> st.deadline <- Float.max st.deadline (now +. Leotp_util.Rto.base_rto t.rto))
    (overlapping_outstanding t ~lo ~hi);
  ignore (Shr.on_packet t.shr ~lo ~hi)
[@@leotp.allow "hot-path-may-alloc"]

(* Endpoint control-loop bookkeeping: the overlap list (typically one
   element) and its iteration closure are per-Data endpoint cost, not
   forwarding-path cost — the zero-allocation budget protects relays. *)
let handle_data t ~lo ~hi ~first_sent ~retx =
  let now = Engine.now t.engine in
  (* Resolve the satisfied Interests.  The Consumer's controller (eqs 6-8)
     runs on the full pull-loop RTT — its Interest emission to Data
     arrival.  When the adjacent Midnode's cache responds this IS the
     paper's hopRTT; for end-to-end responses it is the path RTT, which
     additionally makes Responder-buffer queueing visible to eq (7). *)
  let satisfied = overlapping_outstanding t ~lo ~hi in
  List.iter
    (fun st ->
      if st.lo >= lo && st.hi <= hi then begin
        (* Karn: RTT samples only from un-retransmitted Interests. *)
        if st.retx_count = 0 then begin
          let loop_rtt = now -. st.last_requested in
          Leotp_util.Rto.observe t.rto loop_rtt;
          Hop_cc.on_data t.cc ~now ~interest_owd:loop_rtt ~data_owd:0.0
            ~bytes:(st.hi - st.lo)
        end
        else
          (* Retransmitted ranges still count toward delivered bytes for
             the throughput estimate, without an RTT sample (Karn). *)
          Hop_cc.on_delivered t.cc ~now ~bytes:(st.hi - st.lo);
        t.outstanding <- IntMap.remove st.lo t.outstanding;
        t.outstanding_bytes <- t.outstanding_bytes - (st.hi - st.lo);
        if st.retx_count >= 1 then
          t.stale_bytes <- max 0 (t.stale_bytes - (st.hi - st.lo))
      end)
    satisfied;
  (* Deliver fresh bytes. *)
  let before = Interval_set.cardinal t.received in
  t.received <- Interval_set.add ~lo ~hi t.received;
  let fresh = Interval_set.cardinal t.received - before in
  if fresh > 0 then
    Leotp_net.Flow_metrics.on_deliver t.metrics ~now ~bytes:fresh
      ~owd:(now -. first_sent) ~retx;
  (* In-order prefix growth feeds byte-stream consumers (gateways). *)
  let new_prefix = Interval_set.first_missing ~lo:0 t.received in
  if new_prefix > t.prefix then begin
    let pos = t.prefix in
    t.prefix <- new_prefix;
    if Leotp_net.Trace.on () then
      Leotp_net.Trace.emit
        (Leotp_net.Trace.Deliver
           { node = Node.id t.node; flow = t.flow; pos; len = new_prefix - pos });
    t.on_prefix ~pos ~len:(new_prefix - pos)
  end;
  (* Consumer-side SHR: confirmed holes are re-requested immediately. *)
  let actions = Shr.on_packet t.shr ~lo ~hi in
  List.iter
    (fun (hlo, hhi) ->
      List.iter (fun st -> reissue t st)
        (overlapping_outstanding t ~lo:hlo ~hi:hhi))
    actions.Shr.expired_holes;
  (* Completion. *)
  (match t.total_bytes with
  | Some n when Interval_set.covers ~lo:0 ~hi:n t.received -> finish t
  | _ -> ());
  pump t
[@@leotp.allow "hot-path-may-alloc"]

(* Terminal handler: the Consumer owns the delivered packet and recycles
   it once the slot values are extracted. *)
let handle_packet t pkt =
  if Wire.is_data pkt && pkt.Packet.flow = t.flow then begin
    let lo = Wire.lo pkt and hi = Wire.hi pkt in
    let length = Wire.length pkt in
    let first_sent = Wire.first_sent pkt and retx = Wire.retx pkt in
    Leotp_net.Packet_pool.release pkt;
    if length = 0 then handle_vph t ~lo ~hi
    else handle_data t ~lo ~hi ~first_sent ~retx
  end
  else Leotp_net.Packet_pool.release pkt

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
  (match t.scan_timer with Some tm -> Engine.cancel tm | None -> ());
  (match t.pump_timer with Some tm -> Engine.cancel tm | None -> ());
  t.completed <- true
