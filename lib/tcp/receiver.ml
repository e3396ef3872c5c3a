module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Node = Leotp_net.Node
module Flow_metrics = Leotp_net.Flow_metrics
module Interval_set = Leotp_util.Interval_set

type t = {
  engine : Engine.t;
  node : Node.t;
  src : int;
  flow : int;
  metrics : Flow_metrics.t;
  expected_bytes : int option;
  on_deliver : pos:int -> len:int -> first_sent:float -> retx:bool -> unit;
  on_complete : unit -> unit;
  received : Interval_set.t;
  mutable delivered : int;  (** in-order prefix length *)
  mutable completed : bool;
}

let create engine ~node ~src ~flow ?metrics ?expected_bytes
    ?(on_deliver = fun ~pos:_ ~len:_ ~first_sent:_ ~retx:_ -> ())
    ?(on_complete = fun () -> ()) () =
  let metrics =
    match metrics with Some m -> m | None -> Flow_metrics.create ~flow
  in
  {
    engine;
    node;
    src;
    flow;
    metrics;
    expected_bytes;
    on_deliver;
    on_complete;
    received = Interval_set.create ();
    delivered = 0;
    completed = false;
  }

(* Write the lowest [Wire.max_sacks] received ranges at or above [from]
   straight into the ack's fixed slots, each read by two point queries:
   its first received byte, then the first byte missing above that.
   The walk starts at the cumulative ack, the first missing byte, so
   each range starts above it. *)
let rec fill_sacks t ack ~from =
  if Wire.sack_count ack < Wire.max_sacks then begin
    let lo = Interval_set.first_present t.received ~lo:from in
    if lo < max_int then begin
      let hi = Interval_set.first_missing t.received ~lo in
      Wire.add_sack ack ~lo ~hi;
      fill_sacks t ack ~from:hi
    end
  end

let handle_data t pkt =
  if Wire.is_data_seg pkt && pkt.Packet.flow = t.flow then begin
    let seq = Wire.seq pkt and len = Wire.len pkt in
    let sent_at = Wire.sent_at pkt in
    let first_sent = Wire.first_sent pkt and retx = Wire.retx pkt in
    Leotp_net.Packet_pool.release pkt;
    let now = Engine.now t.engine in
    let new_bytes = Interval_set.add t.received ~lo:seq ~hi:(seq + len) in
    if new_bytes > 0 then begin
      (Flow_metrics.sent t.metrics).(0) <- first_sent;
      Flow_metrics.on_deliver t.metrics ~now ~bytes:new_bytes ~retx
    end;
    (* Advance the in-order prefix and hand it to the application. *)
    let prefix = Interval_set.first_missing t.received ~lo:0 in
    if prefix > t.delivered then begin
      (* Update state before the callback: consumers (Split proxies) read
         [delivered_bytes] from inside it. *)
      let pos = t.delivered in
      t.delivered <- prefix;
      if Leotp_net.Trace.on () then
        Leotp_net.Trace.deliver ~node:(Node.id t.node) ~flow:t.flow ~pos
          ~len:(prefix - pos);
      t.on_deliver ~pos ~len:(prefix - pos) ~first_sent ~retx
    end;
    (* Per-packet ACK with timestamp echo. *)
    let cum = t.delivered in
    let ack =
      Wire.ack_packet ~src:(Node.id t.node) ~dst:t.src ~flow:t.flow
        ~cum_ack:cum
    in
    fill_sacks t ack ~from:cum;
    Wire.set_ts_echo ack sent_at;
    Node.send t.node ack;
    match t.expected_bytes with
    | Some n when t.delivered >= n && not t.completed ->
      t.completed <- true;
      if Leotp_net.Trace.on () then
        Leotp_net.Trace.complete ~node:(Node.id t.node) ~flow:t.flow
          ~bytes:t.delivered;
      Flow_metrics.set_finished t.metrics now;
      t.on_complete ()
    | _ -> ()
  end
  else Leotp_net.Packet_pool.release pkt

let delivered_bytes t = t.delivered
let complete t = t.completed
