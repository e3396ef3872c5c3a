(* Tests for the §VII extensions: the pending-Interest table (multicast)
   and the TCP <-> LEOTP gateway bridge. *)

module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Topology = Leotp_net.Topology
module Bandwidth = Leotp_net.Bandwidth
module Flow_metrics = Leotp_net.Flow_metrics

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec
let config = Leotp.Config.default

let setup () =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  (Engine.create (), Leotp_util.Rng.create ~seed:21)

(* ------------------------------------------------------------------ *)
(* PIT unit tests *)

let test_pit_register_block () =
  let pit = Leotp.Pit.create ~expiry:1.0 () in
  Alcotest.(check bool) "first forwards" true
    (Leotp.Pit.register pit ~now:0.0 ~flow:1 ~lo:0 ~hi:100 ~consumer:7);
  Alcotest.(check bool) "duplicate blocked" false
    (Leotp.Pit.register pit ~now:0.1 ~flow:1 ~lo:0 ~hi:100 ~consumer:8);
  Alcotest.(check bool) "other range forwards" true
    (Leotp.Pit.register pit ~now:0.1 ~flow:1 ~lo:100 ~hi:200 ~consumer:8);
  Alcotest.(check int) "two pending" 2 (Leotp.Pit.pending pit)

let test_pit_satisfy () =
  let pit = Leotp.Pit.create ~expiry:1.0 () in
  ignore (Leotp.Pit.register pit ~now:0.0 ~flow:1 ~lo:0 ~hi:100 ~consumer:7);
  ignore (Leotp.Pit.register pit ~now:0.1 ~flow:1 ~lo:0 ~hi:100 ~consumer:8);
  let waiting = Leotp.Pit.satisfy pit ~now:0.2 ~flow:1 ~lo:0 ~hi:100 in
  Alcotest.(check (list int)) "both consumers" [ 8; 7 ] waiting;
  Alcotest.(check (list int)) "entry dropped" []
    (Leotp.Pit.satisfy pit ~now:0.2 ~flow:1 ~lo:0 ~hi:100);
  Alcotest.(check int) "empty" 0 (Leotp.Pit.pending pit)

let test_pit_expiry () =
  let pit = Leotp.Pit.create ~expiry:1.0 () in
  ignore (Leotp.Pit.register pit ~now:0.0 ~flow:1 ~lo:0 ~hi:100 ~consumer:7);
  (* After expiry a new registration forwards again... *)
  Alcotest.(check bool) "re-forward after expiry" true
    (Leotp.Pit.register pit ~now:2.0 ~flow:1 ~lo:0 ~hi:100 ~consumer:9);
  (* ...and a stale satisfy returns nobody. *)
  ignore (Leotp.Pit.register pit ~now:2.0 ~flow:2 ~lo:0 ~hi:100 ~consumer:9);
  Alcotest.(check (list int)) "stale ignored" []
    (Leotp.Pit.satisfy pit ~now:5.0 ~flow:2 ~lo:0 ~hi:100);
  Leotp.Pit.expire_before pit ~now:10.0;
  Alcotest.(check int) "gc" 0 (Leotp.Pit.pending pit)

(* ------------------------------------------------------------------ *)
(* Multicast over a Y topology *)

let build_y engine rng =
  let producer_node = Node.create ~name:"P" in
  let mid_node = Node.create ~name:"M" in
  let a_node = Node.create ~name:"A" in
  let b_node = Node.create ~name:"B" in
  let spec = Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 20.0)) ~delay:0.02 () in
  let up = Topology.connect engine ~rng producer_node mid_node spec in
  let la = Topology.connect engine ~rng mid_node a_node spec in
  let lb = Topology.connect engine ~rng mid_node b_node spec in
  Node.add_route producer_node ~dst:(Node.id mid_node) up.Topology.fwd;
  Node.add_route producer_node ~dst:(Node.id a_node) up.Topology.fwd;
  Node.add_route producer_node ~dst:(Node.id b_node) up.Topology.fwd;
  Node.add_route mid_node ~dst:(Node.id producer_node) up.Topology.rev;
  Node.add_route mid_node ~dst:(Node.id a_node) la.Topology.fwd;
  Node.add_route mid_node ~dst:(Node.id b_node) lb.Topology.fwd;
  Node.add_route a_node ~dst:(Node.id producer_node) la.Topology.rev;
  Node.add_route b_node ~dst:(Node.id producer_node) lb.Topology.rev;
  (producer_node, mid_node, a_node, b_node, up)

let test_multicast_shares_uplink () =
  let engine, rng = setup () in
  let producer_node, mid_node, a_node, b_node, up = build_y engine rng in
  let mid = Leotp.Midnode.create engine ~config ~node:mid_node () in
  let bytes = 1_000_000 in
  let flow = 9 in
  let producer =
    Leotp.Producer.create engine ~config ~node:producer_node ~flow
      ~total_bytes:bytes ()
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
  let ca = consumer_at a_node and cb = consumer_at b_node in
  Leotp.Consumer.start ca;
  ignore (Engine.schedule engine ~after:0.2 (fun () -> Leotp.Consumer.start cb));
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "A complete" true (Leotp.Consumer.complete ca);
  Alcotest.(check bool) "B complete" true (Leotp.Consumer.complete cb);
  Alcotest.(check int) "A exact" bytes (Leotp.Consumer.received_bytes ca);
  Alcotest.(check int) "B exact" bytes (Leotp.Consumer.received_bytes cb);
  (* The uplink must carry far less than two copies. *)
  let carried = (Leotp_net.Link.stats up.Topology.fwd).Leotp_net.Link.bytes_delivered in
  Alcotest.(check bool)
    (Printf.sprintf "uplink %.2f MB < 1.5 copies" (float_of_int carried /. 1e6))
    true
    (carried < 3 * bytes / 2);
  Alcotest.(check bool) "cache served B" true
    (match Leotp.Midnode.flow_stats mid ~flow with
    | Some fs -> fs.Leotp.Midnode.cache_hits > 0 || Leotp.Midnode.pit_blocked mid > 0
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Gateway bridge *)

let build_bridge_path engine rng ~sat_plr =
  (* sender -- t1 -- ingress == sat1 == sat2 == egress -- t2 -- receiver *)
  let terrestrial = Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 50.0)) ~delay:0.002 () in
  let satellite =
    Topology.hop ~plr:sat_plr ~bandwidth:(Bandwidth.Constant (mbps 20.0)) ~delay:0.015 ()
  in
  let chain =
    Topology.chain engine ~rng
      [| terrestrial; satellite; satellite; satellite; terrestrial |]
  in
  chain

let test_bridge_end_to_end () =
  let engine, rng = setup () in
  let chain = build_bridge_path engine rng ~sat_plr:0.01 in
  let n = chain.Topology.nodes in
  (* Midnodes on the two interior satellite relays. *)
  let _m1 = Leotp.Midnode.create engine ~config ~node:n.(2) () in
  let _m2 = Leotp.Midnode.create engine ~config ~node:n.(3) () in
  let bytes = 2_000_000 in
  let bridge =
    Leotp_gateway.Bridge.create engine ~config ~tcp_cc:Leotp_tcp.Cc.Cubic
      ~sender_node:n.(0) ~ingress_node:n.(1) ~egress_node:n.(4)
      ~receiver_node:n.(5) ~flow:5 ~bytes ()
  in
  Leotp_gateway.Bridge.start bridge;
  Engine.run ~until:300.0 engine;
  Alcotest.(check bool) "end-to-end complete" true
    (Leotp_gateway.Bridge.complete bridge);
  Alcotest.(check int) "receiver got every byte" bytes
    (Flow_metrics.app_bytes (Leotp_gateway.Bridge.tcp_out_metrics bridge));
  Alcotest.(check int) "satellite leg carried the stream" bytes
    (Flow_metrics.app_bytes (Leotp_gateway.Bridge.leotp_metrics bridge));
  Alcotest.(check int) "no residual backlog" 0
    (Leotp_gateway.Bridge.ingress_backlog bridge
    + Leotp_gateway.Bridge.egress_backlog bridge)

let test_bridge_clean () =
  let engine, rng = setup () in
  let chain = build_bridge_path engine rng ~sat_plr:0.0 in
  let n = chain.Topology.nodes in
  let bytes = 1_000_000 in
  let bridge =
    Leotp_gateway.Bridge.create engine ~config ~tcp_cc:Leotp_tcp.Cc.Newreno
      ~sender_node:n.(0) ~ingress_node:n.(1) ~egress_node:n.(4)
      ~receiver_node:n.(5) ~flow:5 ~bytes ()
  in
  Leotp_gateway.Bridge.start bridge;
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "complete" true (Leotp_gateway.Bridge.complete bridge);
  (* Sanity on timing: 1 MB over a 20 Mbps leg should take ~0.4 s+. *)
  match Flow_metrics.completion_time (Leotp_gateway.Bridge.tcp_out_metrics bridge) with
  | Some t -> Alcotest.(check bool) (Printf.sprintf "t=%.2f" t) true (t < 30.0)
  | None -> Alcotest.fail "no completion time"

let () =
  Alcotest.run "leotp_gateway"
    [
      ( "pit",
        [
          Alcotest.test_case "register/block" `Quick test_pit_register_block;
          Alcotest.test_case "satisfy" `Quick test_pit_satisfy;
          Alcotest.test_case "expiry" `Quick test_pit_expiry;
        ] );
      ( "multicast",
        [ Alcotest.test_case "shared uplink" `Quick test_multicast_shares_uplink ] );
      ( "bridge",
        [
          Alcotest.test_case "lossy end-to-end" `Quick test_bridge_end_to_end;
          Alcotest.test_case "clean path" `Quick test_bridge_clean;
        ] );
    ]
