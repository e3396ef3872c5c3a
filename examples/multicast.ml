(* Multicast (paper §VII): two Consumers fetch the same named flow; the
   branching Midnode's cache and pending-Interest table turn the transfer
   into a multicast tree — the Producer's uplink carries (roughly) one
   copy of the data.

       Producer ---- Midnode ---+---- Consumer A
                                +---- Consumer B

     dune exec examples/multicast.exe *)

module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Topology = Leotp_net.Topology
module Bandwidth = Leotp_net.Bandwidth

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

let () =
  let engine = Engine.create () in
  let rng = Leotp_util.Rng.create ~seed:3 in
  let producer_node = Node.create ~name:"producer" in
  let mid_node = Node.create ~name:"branch" in
  let a_node = Node.create ~name:"consumerA" in
  let b_node = Node.create ~name:"consumerB" in
  let spec = Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 20.0)) ~delay:0.02 () in
  let up = Topology.connect engine ~rng producer_node mid_node spec in
  let la = Topology.connect engine ~rng mid_node a_node spec in
  let lb = Topology.connect engine ~rng mid_node b_node spec in
  (* Static routes for the Y. *)
  Node.add_route producer_node ~dst:(Node.id mid_node) up.Topology.fwd;
  Node.add_route producer_node ~dst:(Node.id a_node) up.Topology.fwd;
  Node.add_route producer_node ~dst:(Node.id b_node) up.Topology.fwd;
  Node.add_route mid_node ~dst:(Node.id producer_node) up.Topology.rev;
  Node.add_route mid_node ~dst:(Node.id a_node) la.Topology.fwd;
  Node.add_route mid_node ~dst:(Node.id b_node) lb.Topology.fwd;
  Node.add_route a_node ~dst:(Node.id producer_node) la.Topology.rev;
  Node.add_route a_node ~dst:(Node.id mid_node) la.Topology.rev;
  Node.add_route b_node ~dst:(Node.id producer_node) lb.Topology.rev;
  Node.add_route b_node ~dst:(Node.id mid_node) lb.Topology.rev;

  let config = Leotp.Config.default in
  let mid = Leotp.Midnode.create engine ~config ~node:mid_node () in
  let bytes = 3_000_000 in
  let flow = 9 in
  let metrics = Leotp_net.Flow_metrics.create ~flow in
  let producer =
    Leotp.Producer.create engine ~config ~node:producer_node ~flow
      ~total_bytes:bytes ~metrics ()
  in
  Node.set_handler producer_node (fun pkt ->
      if Leotp.Wire.is_interest pkt then
        Leotp.Producer.handle_interest producer pkt
      else Node.send producer_node pkt);
  let consumer_at node =
    let c =
      Leotp.Consumer.create engine ~config ~node
        ~producer:(Node.id producer_node) ~flow ~total_bytes:bytes ()
    in
    Node.set_handler node (fun pkt ->
        if Leotp.Wire.is_data pkt then Leotp.Consumer.handle_packet c pkt
        else Node.send node pkt);
    c
  in
  let ca = consumer_at a_node in
  let cb = consumer_at b_node in
  Leotp.Consumer.start ca;
  (* B joins 0.5 s later and shares the same FlowID. *)
  ignore (Engine.schedule engine ~after:0.5 (fun () -> Leotp.Consumer.start cb));
  Engine.run ~until:60.0 engine;

  let uplink = Leotp_net.Link.stats up.Topology.fwd in
  Printf.printf "consumer A: complete=%b (%d bytes)\n"
    (Leotp.Consumer.complete ca)
    (Leotp.Consumer.received_bytes ca);
  Printf.printf "consumer B: complete=%b (%d bytes)\n"
    (Leotp.Consumer.complete cb)
    (Leotp.Consumer.received_bytes cb);
  Printf.printf "uplink carried %.1f MB for %.1f MB of demand (%.2fx)\n"
    (float_of_int uplink.Leotp_net.Link.bytes_delivered /. 1e6)
    (float_of_int (2 * bytes) /. 1e6)
    (float_of_int uplink.Leotp_net.Link.bytes_delivered /. float_of_int (2 * bytes));
  Printf.printf "branch midnode: %d duplicate Interests blocked by the PIT\n"
    (Leotp.Midnode.pit_blocked mid);
  match Leotp.Midnode.flow_stats mid ~flow with
  | Some fs -> Printf.printf "branch cache hits: %d\n" fs.Leotp.Midnode.cache_hits
  | None -> ()
