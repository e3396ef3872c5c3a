module Node = Leotp_net.Node
module Packet = Leotp_net.Packet
module Flow_metrics = Leotp_net.Flow_metrics

type t = {
  tcp_in : Leotp_tcp.Sender.t;
  rx_in : Leotp_tcp.Receiver.t;
  consumer : Leotp.Consumer.t;
  tcp_out : Leotp_tcp.Sender.t;
  m_leotp : Flow_metrics.t;
  m_out : Flow_metrics.t;
  completed : bool ref;
}

let create engine ~config ~tcp_cc ~sender_node ~ingress_node ~egress_node
    ~receiver_node ~flow ~bytes () =
  let m_in = Flow_metrics.create ~flow in
  let m_leotp = Flow_metrics.create ~flow in
  let m_out = Flow_metrics.create ~flow in
  let completed = ref false in

  (* Terrestrial leg 1: TCP sender -> ingress gateway. *)
  let tcp_in =
    Leotp_tcp.Sender.create engine ~node:sender_node
      ~dst:(Node.id ingress_node) ~flow ~cc:tcp_cc
      ~source:(Leotp_tcp.Sender.Fixed bytes) ~metrics:m_in ()
  in
  let producer_ref = ref None in
  let rx_in =
    Leotp_tcp.Receiver.create engine ~node:ingress_node
      ~src:(Node.id sender_node) ~flow ~metrics:m_in
      ~on_deliver:(fun ~pos:_ ~len:_ ~first_sent:_ ~retx:_ ->
        (* More of the stream exists: parked Interests can be served. *)
        match !producer_ref with
        | Some p -> Leotp.Producer.notify_data_available p
        | None -> ())
      ()
  in
  (* Satellite segment: the ingress gateway republishes the byte stream
     as a LEOTP Producer whose prefix is what TCP has delivered. *)
  let producer =
    Leotp.Producer.create engine ~config ~node:ingress_node ~flow
      ~total_bytes:bytes
      ~available:(fun () -> Leotp_tcp.Receiver.delivered_bytes rx_in)
      ~metrics:m_leotp ()
  in
  producer_ref := Some producer;
  (* Terrestrial leg 2: egress gateway -> final TCP receiver; the source
     grows with the LEOTP Consumer's in-order prefix. *)
  let consumer_ref = ref None in
  let tcp_out =
    Leotp_tcp.Sender.create engine ~node:egress_node
      ~dst:(Node.id receiver_node) ~flow ~cc:tcp_cc
      ~source:
        (Leotp_tcp.Sender.Dynamic
           (fun () ->
             match !consumer_ref with
             | Some c -> Leotp.Consumer.delivered_prefix c
             | None -> 0))
      ~metrics:m_out ()
  in
  let consumer =
    Leotp.Consumer.create engine ~config ~node:egress_node
      ~producer:(Node.id ingress_node) ~flow ~total_bytes:bytes
      ~metrics:m_leotp
      ~on_prefix:(fun ~pos:_ ~len:_ ->
        Leotp_tcp.Sender.notify_data_available tcp_out)
      ()
  in
  consumer_ref := Some consumer;
  let receiver =
    Leotp_tcp.Receiver.create engine ~node:receiver_node
      ~src:(Node.id egress_node) ~flow ~metrics:m_out ~expected_bytes:bytes
      ~on_complete:(fun () -> completed := true)
      ()
  in

  (* Handlers: each node dispatches by packet kind, forwarding anything
     that is not for it (the gateways sit on routed paths). *)
  Node.set_handler sender_node (fun ~from:_ pkt ->
      if Leotp_tcp.Wire.is_ack_seg pkt && pkt.Packet.flow = flow then
        Leotp_tcp.Sender.handle_ack tcp_in pkt
      else Node.forward sender_node ~from:0 pkt);
  Node.set_handler ingress_node (fun ~from:_ pkt ->
      if Leotp_tcp.Wire.is_data_seg pkt && pkt.Packet.flow = flow then
        Leotp_tcp.Receiver.handle_data rx_in pkt
      else if Leotp.Wire.is_interest pkt && pkt.Packet.flow = flow then
        Leotp.Producer.handle_interest producer pkt
      else Node.forward ingress_node ~from:0 pkt);
  Node.set_handler egress_node (fun ~from:_ pkt ->
      if Leotp.Wire.is_data pkt && pkt.Packet.flow = flow then
        Leotp.Consumer.handle_packet consumer pkt
      else if Leotp_tcp.Wire.is_ack_seg pkt && pkt.Packet.flow = flow then
        Leotp_tcp.Sender.handle_ack tcp_out pkt
      else Node.forward egress_node ~from:0 pkt);
  Node.set_handler receiver_node (fun ~from:_ pkt ->
      if Leotp_tcp.Wire.is_data_seg pkt && pkt.Packet.flow = flow then
        Leotp_tcp.Receiver.handle_data receiver pkt
      else Node.forward receiver_node ~from:0 pkt);
  { tcp_in; rx_in; consumer; tcp_out; m_leotp; m_out; completed }

let start t =
  Leotp_tcp.Sender.start t.tcp_in;
  Leotp.Consumer.start t.consumer;
  Leotp_tcp.Sender.start t.tcp_out

let complete t = !(t.completed)
let leotp_metrics t = t.m_leotp
let tcp_out_metrics t = t.m_out

let ingress_backlog t =
  Leotp_tcp.Receiver.delivered_bytes t.rx_in
  - Leotp.Consumer.delivered_prefix t.consumer

let egress_backlog t =
  Leotp.Consumer.delivered_prefix t.consumer - Leotp_tcp.Sender.snd_una t.tcp_out
