module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Packet = Leotp_net.Packet
module IntMap = Map.Make (Int)

(* Per-proxy origin-timestamp bookkeeping: byte position -> (first_sent,
   retx) recorded from incoming segments.  Entries are consumed (left
   behind, pruned below the downstream snd_una) as data moves on. *)
type origin_info = { first_sent : float; retx : bool }

type proxy = { tx : Sender.t; mutable origin : origin_info IntMap.t }

type t = {
  origin_sender : Sender.t;
  proxies : proxy array;
  metrics : Leotp_net.Flow_metrics.t;
  completed : bool ref;
}

let origin_lookup proxy ~pos ~len:_ =
  (* Find the recorded range containing [pos]. *)
  match IntMap.find_last_opt (fun k -> k <= pos) proxy.origin with
  | Some (_, info) -> (info.first_sent, info.retx)
  | None -> (0.0, false)

let prune_origin proxy upto =
  (* Keep one entry at or below [upto] (it may still cover bytes >= upto).
     The predicate closure and the map surgery allocate — per cumulative
     ack on the proxy, bounded by the origin map the split design keeps. *)
  match
    IntMap.find_last_opt
      ((fun k -> k <= upto) [@leotp.allow "hot-path-may-alloc"])
      proxy.origin
  with
  | Some (k, _) ->
    let _, at, above = IntMap.split k proxy.origin in
    proxy.origin <-
      (match at with Some v -> IntMap.add k v above | None -> above)
  | None -> ()

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
    let proxy_ref = ref None in
    let tx =
      Sender.create engine ~node ~dst:(Node.id nodes.(i + 1)) ~flow ~cc
        ~source:
          (Sender.Dynamic
             (fun () ->
               match !rx_ref with
               | Some rx -> Receiver.delivered_bytes rx
               | None -> 0))
        ~first_sent_of:(fun ~pos ~len ->
          match !proxy_ref with
          | Some p -> origin_lookup p ~pos ~len
          | None -> (0.0, false))
        ()
    in
    let rx =
      Receiver.create engine ~node ~src:(Node.id nodes.(i - 1)) ~flow
        ~on_deliver:(fun ~pos:_ ~len:_ ~first_sent:_ ~retx:_ ->
          Sender.notify_data_available tx)
        ()
    in
    rx_ref := Some rx;
    let proxy = { tx; origin = IntMap.empty } in
    proxy_ref := Some proxy;
    proxies.(i - 1) <- Some proxy;
    Node.set_handler node (fun pkt ->
        if Wire.is_data_seg pkt && pkt.Packet.flow = flow then begin
          (* Record origin info before handing the packet on: the receiver
             recycles it. *)
          (* per-packet origin bookkeeping is the split proxy's job: the
             record and map node carry end-to-end timing across the relay *)
          proxy.origin <-
            IntMap.add (Wire.seq pkt)
              ({ first_sent = Wire.first_sent pkt; retx = Wire.retx pkt }
              [@leotp.allow "hot-path-may-alloc"])
              proxy.origin;
          prune_origin proxy (Sender.snd_una proxy.tx);
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
  Array.iter (fun p -> Sender.start p.tx) t.proxies

let metrics t = t.metrics

let complete t = !(t.completed)
