module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Node = Leotp_net.Node
module Index = Hashtbl.Make (Int)

type t = {
  engine : Engine.t;
  config : Config.t;
  node : Node.t;
  flow : int;
  total_bytes : int option;
  available : (unit -> int) option;
      (** gateway mode: only this prefix exists yet (paper §VII's
          TCP-compatibility proxies feed a Producer incrementally) *)
  metrics : Leotp_net.Flow_metrics.t;
  buffer : Send_buffer.t;
  first_sent : float Index.t;  (** range start -> origin send time *)
  mutable pending : (int * int * int) list;
      (** (lo, hi, consumer) requests beyond the available prefix *)
}

let create engine ~config ~node ~flow ?total_bytes ?available ?metrics () =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Leotp_net.Flow_metrics.create ~flow
  in
  let send pkt =
    Leotp_net.Flow_metrics.on_send metrics ~bytes:pkt.Packet.size;
    Node.send node pkt
  in
  {
    engine;
    config;
    node;
    flow;
    total_bytes;
    available;
    metrics;
    buffer = Send_buffer.create engine ~config ~send ();
    (* small: flow set-up is timed, and the table doubles as it fills *)
    first_sent = Index.create 16;
    pending = [];
  }

let available_now t =
  let base = match t.total_bytes with Some n -> n | None -> max_int in
  match t.available with Some f -> min base (f ()) | None -> base

(* One MSS-sized Data packet into the sending buffer.  Its Interest OWD
   slot starts at 0: the buffer stamps the latest one as the packet
   drains, and nothing reads the packet before that. *)
let push_chunk t ~consumer ~lo ~hi ~timestamp ~first_sent ~retx =
  ignore
    (Send_buffer.push t.buffer
       (Wire.data_packet ~config:t.config ~src:(Node.id t.node) ~dst:consumer
          ~flow:t.flow ~lo ~hi ~timestamp ~req_owd:0.0 ~first_sent ~retx))

(* Serve [range_lo, hi) in MSS-sized Data packets (a retransmission
   Interest may cover a multi-packet hole); transparent addressing
   (paper §IV-A): data carries the endpoints' addresses, midnodes
   intercept it in flight. *)
let rec serve_chunks t ~now ~consumer ~lo:range_lo ~hi =
  (* Recursion, not while+ref: this runs per served Interest and a local
     [ref] is a minor-heap cell.  The first-send table entry is per-chunk
     bookkeeping the Data packet carries — allocation the response
     itself dwarfs. *)
  if range_lo < hi then begin
    let lo = range_lo in
    let chunk_hi = min hi (lo + t.config.Config.mss) in
    (match Index.find t.first_sent lo with
    | first_sent ->
      Leotp_net.Flow_metrics.on_retransmit t.metrics;
      push_chunk t ~consumer ~lo ~hi:chunk_hi ~timestamp:now ~first_sent
        ~retx:true
    | exception Not_found ->
      (Index.add [@leotp.allow "hot-path-may-alloc"]) t.first_sent lo now;
      push_chunk t ~consumer ~lo ~hi:chunk_hi ~timestamp:now ~first_sent:now
        ~retx:false);
    serve_chunks t ~now ~consumer ~lo:chunk_hi ~hi
  end

let serve t ~now ~consumer ~lo ~hi =
  let avail = available_now t in
  (* Bytes beyond the current prefix wait for the application to produce
     them (incremental sources: the §VII TCP gateway). *)
  if hi > avail && (t.available <> None || t.total_bytes = None) then begin
    if t.available <> None then
      (* grows only while the application has not yet produced the range
         (incremental sources) — backpressure, not the steady serve path *)
      t.pending <-
        (((max lo avail, hi, consumer) :: t.pending)
        [@leotp.allow "hot-path-may-alloc"])
  end;
  let hi = min hi avail in
  if hi > lo then serve_chunks t ~now ~consumer ~lo ~hi

let notify_data_available t =
  let now = Engine.now t.engine in
  let pending = t.pending in
  t.pending <- [];
  List.iter (fun (lo, hi, consumer) -> serve t ~now ~consumer ~lo ~hi) pending

(* Terminal handler: the Interest dies here whether or not it matches. *)
let handle_interest t pkt =
  if Wire.is_interest pkt && pkt.Packet.flow = t.flow then begin
    let now = Engine.now t.engine in
    Send_buffer.on_interest t.buffer ~now pkt;
    let lo = Wire.lo pkt and hi = Wire.hi pkt in
    let consumer = pkt.Packet.src in
    Leotp_net.Packet_pool.release pkt;
    serve t ~now ~consumer ~lo ~hi
  end
  else Leotp_net.Packet_pool.release pkt

let stop t =
  Send_buffer.clear t.buffer;
  t.pending <- []
