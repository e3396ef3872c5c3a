module Node = Leotp_net.Node
module Packet = Leotp_net.Packet

type t = {
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Leotp_net.Flow_metrics.t;
}

let connect engine ~src_node ~dst_node ~flow ~cc ?source ?on_complete () =
  let metrics = Leotp_net.Flow_metrics.create ~flow in
  let expected_bytes =
    match source with Some (Sender.Fixed n) -> Some n | _ -> None
  in
  let sender =
    Sender.create engine ~node:src_node ~dst:(Node.id dst_node) ~flow ~cc
      ?source ~metrics ?on_complete ()
  in
  let receiver =
    Receiver.create engine ~node:dst_node ~src:(Node.id src_node) ~flow
      ~metrics ?expected_bytes ()
  in
  Node.set_handler src_node (fun pkt ->
      if Wire.is_ack_seg pkt && pkt.Packet.flow = flow then
        Sender.handle_ack sender pkt
      else Node.send src_node pkt);
  Node.set_handler dst_node (fun pkt ->
      if Wire.is_data_seg pkt && pkt.Packet.flow = flow then
        Receiver.handle_data receiver pkt
      else Node.send dst_node pkt);
  { sender; receiver; metrics }

let start t = Sender.start t.sender
let stop t = Sender.stop t.sender
