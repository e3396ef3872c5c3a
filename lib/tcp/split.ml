module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Packet = Leotp_net.Packet
module Seg_store = Leotp_util.Seg_store

type t = {
  origin_sender : Sender.t;
  proxies : Sender.t array;  (** each proxy's downstream sender *)
  metrics : Leotp_net.Flow_metrics.t;
  completed : bool ref;
}

(* A proxy's origin times: one range per incoming segment start, with
   the origin's [first_sent] and a [retx_count] of 1 when the segment
   came in marked retransmitted; ranges are pruned below the downstream
   snd_una as data moves on.  A lookup answers from the range starting
   last at or before [pos]. *)
let origin_lookup origin ~pos ~len:_ =
  let i = Seg_store.lower_bound origin ~from:(pos + 1) - 1 in
  if i < 0 then (0.0, false)
  else
    let o = Seg_store.get origin i in
    (o.times.first_sent, o.retx_count > 0)

let record_origin origin pkt =
  let seq = Wire.seq pkt in
  let i = Seg_store.lower_bound origin ~from:seq in
  let o =
    if i < Seg_store.length origin && (Seg_store.get origin i).seq = seq then
      Seg_store.get origin i
    else begin
      let o = Seg_store.make ~seq ~len:(Wire.len pkt) in
      Seg_store.insert origin i o;
      o
    end
  in
  o.times.first_sent <- Wire.first_sent pkt;
  o.retx_count <- (if Wire.retx pkt then 1 else 0)

(* Keep the last range starting at or below [upto] (it may still cover
   bytes >= upto) and everything above it. *)
let rec prune_origin origin upto =
  if Seg_store.length origin > 1 && (Seg_store.get origin 1).seq <= upto
  then begin
    Seg_store.remove origin 0;
    prune_origin origin upto
  end

let connect engine ~nodes ~flow ~cc ?source () =
  let n = Array.length nodes in
  assert (n >= 2);
  let metrics = Leotp_net.Flow_metrics.create ~flow in
  let expected_bytes =
    match source with Some (Sender.Fixed b) -> Some b | _ -> None
  in
  let completed = ref false in
  (* Build from the receiver side backwards so each proxy's sender knows
     its downstream node. *)
  let receiver =
    Receiver.create engine ~node:nodes.(n - 1) ~src:(Node.id nodes.(n - 2))
      ~flow ~metrics ?expected_bytes
      ~on_complete:(fun () -> completed := true)
      ()
  in
  Node.set_handler nodes.(n - 1) (fun pkt ->
      if Wire.is_data_seg pkt && pkt.Packet.flow = flow then
        Receiver.handle_data receiver pkt
      else Node.send nodes.(n - 1) pkt);
  (* Proxies at interior nodes, downstream-first. *)
  let proxies = Array.make (max 0 (n - 2)) None in
  for i = n - 2 downto 1 do
    let node = nodes.(i) in
    let rx_ref = ref None in
    let origin = Seg_store.create () in
    let tx =
      Sender.create engine ~node ~dst:(Node.id nodes.(i + 1)) ~flow ~cc
        ~source:
          (Sender.Dynamic
             (fun () ->
               match !rx_ref with
               | Some rx -> Receiver.delivered_bytes rx
               | None -> 0))
        ~first_sent_of:(origin_lookup origin) ()
    in
    let rx =
      Receiver.create engine ~node ~src:(Node.id nodes.(i - 1)) ~flow
        ~on_deliver:(fun ~pos:_ ~len:_ ~first_sent:_ ~retx:_ ->
          Sender.notify_data_available tx)
        ()
    in
    rx_ref := Some rx;
    proxies.(i - 1) <- Some tx;
    Node.set_handler node (fun pkt ->
        if Wire.is_data_seg pkt && pkt.Packet.flow = flow then begin
          (* Record origin info before handing the packet on: the receiver
             recycles it. *)
          record_origin origin pkt;
          prune_origin origin (Sender.snd_una tx);
          Receiver.handle_data rx pkt
        end
        else if Wire.is_ack_seg pkt && pkt.Packet.flow = flow then
          Sender.handle_ack tx pkt
        else Node.send node pkt)
  done;
  let proxies = Array.map Option.get proxies in
  let origin_sender =
    Sender.create engine ~node:nodes.(0) ~dst:(Node.id nodes.(1)) ~flow ~cc
      ?source ~metrics ()
  in
  Node.set_handler nodes.(0) (fun pkt ->
      if Wire.is_ack_seg pkt && pkt.Packet.flow = flow then
        Sender.handle_ack origin_sender pkt
      else Node.send nodes.(0) pkt);
  { origin_sender; proxies; metrics; completed }

let start t =
  Sender.start t.origin_sender;
  Array.iter Sender.start t.proxies

let metrics t = t.metrics

let complete t = !(t.completed)
