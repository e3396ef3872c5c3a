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

(* The consumers a satisfy returns, read back newest first. *)
let satisfy pit ~now ~flow ~lo ~hi =
  List.init (Leotp.Pit.satisfy pit ~now ~flow ~lo ~hi) (Leotp.Pit.waiter pit)

let test_pit_satisfy () =
  let pit = Leotp.Pit.create ~expiry:1.0 () in
  ignore (Leotp.Pit.register pit ~now:0.0 ~flow:1 ~lo:0 ~hi:100 ~consumer:7);
  ignore (Leotp.Pit.register pit ~now:0.1 ~flow:1 ~lo:0 ~hi:100 ~consumer:8);
  let waiting = satisfy pit ~now:0.2 ~flow:1 ~lo:0 ~hi:100 in
  Alcotest.(check (list int)) "both consumers" [ 8; 7 ] waiting;
  Alcotest.(check (list int)) "entry dropped" []
    (satisfy pit ~now:0.2 ~flow:1 ~lo:0 ~hi:100);
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
    (satisfy pit ~now:5.0 ~flow:2 ~lo:0 ~hi:100);
  Leotp.Pit.expire_before pit ~now:10.0;
  Alcotest.(check int) "gc" 0 (Leotp.Pit.pending pit)

(* The hash-table PIT the range-keyed one replaced, kept as the
   reference model: one record and consumer list per entry under a tuple
   key, the same traced events, the amortized sweep every 64
   registrations and removals in sorted key order. *)
module Pit_model = struct
  module Trace = Leotp_net.Trace

  type entry = { mutable consumers : int list; created : float }

  type t = {
    label : string;
    expiry : float;
    table : (int * int * int, entry) Hashtbl.t;
    mutable ops : int;
  }

  let create ~label ~expiry = { label; expiry; table = Hashtbl.create 64; ops = 0 }
  let fresh t ~now e = now -. e.created < t.expiry

  let remove_emitting t ((flow, lo, hi) as key) =
    Hashtbl.remove t.table key;
    if Trace.on () then
      Trace.emit
        (Trace.Pit_expire
           { node = t.label; flow; lo; hi; pending = Hashtbl.length t.table })

  let remove_where t doomed =
    List.iter (remove_emitting t)
      (List.sort compare
         (Hashtbl.fold
            (fun k e acc -> if doomed k e then k :: acc else acc)
            t.table []))

  let expire_before t ~now = remove_where t (fun _ e -> not (fresh t ~now e))

  let register t ~now ~flow ~lo ~hi ~consumer =
    t.ops <- t.ops + 1;
    if t.ops mod 64 = 0 then expire_before t ~now;
    let key = (flow, lo, hi) in
    let forwarded =
      match Hashtbl.find_opt t.table key with
      | Some e when fresh t ~now e ->
        if not (List.mem consumer e.consumers) then
          e.consumers <- consumer :: e.consumers;
        false
      | _ ->
        Hashtbl.replace t.table key { consumers = [ consumer ]; created = now };
        true
    in
    if Trace.on () then
      Trace.emit
        (Trace.Pit_register
           {
             node = t.label;
             flow;
             lo;
             hi;
             forwarded;
             expiry = t.expiry;
             pending = Hashtbl.length t.table;
           });
    forwarded

  let satisfy t ~now ~flow ~lo ~hi =
    let key = (flow, lo, hi) in
    match Hashtbl.find_opt t.table key with
    | Some e ->
      Hashtbl.remove t.table key;
      let is_fresh = fresh t ~now e in
      if Trace.on () then
        Trace.emit
          (Trace.Pit_satisfy
             {
               node = t.label;
               flow;
               lo;
               hi;
               fresh = is_fresh;
               age = now -. e.created;
               pending = Hashtbl.length t.table;
             });
      if is_fresh then e.consumers else []
    | None -> []

  let pending t = Hashtbl.length t.table
  let clear t = remove_where t (fun _ _ -> true)
  let drop_flow t ~flow = remove_where t (fun (f, _, _) _ -> f = flow)
end

type pit_op =
  | Register of int * int * int  (** flow, range index, consumer *)
  | Satisfy of int * int
  | Expire
  | Drop_flow of int
  | Clear

let show_pit_op = function
  | Register (f, r, c) -> Printf.sprintf "register %d/%d by %d" f r c
  | Satisfy (f, r) -> Printf.sprintf "satisfy %d/%d" f r
  | Expire -> "expire"
  | Drop_flow f -> Printf.sprintf "drop flow %d" f
  | Clear -> "clear"

(* Scripts over 4 flows x 8 ranges and 3 consumers, so joins, stale
   re-registrations and sweeps that remove entries all happen; nearly
   every script holds more than 8 live keys at once (the table grows
   past 16 slots) and some more than 16 (past 32).  Each op first moves
   the clock on by up to 0.3 s against a 1 s expiry. *)
let pit_script_gen =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        ( 10,
          map3
            (fun f r c -> Register (f, r, c))
            (int_range 1 4) (int_range 0 7) (int_range 1 3) );
        (5, map2 (fun f r -> Satisfy (f, r)) (int_range 1 4) (int_range 0 7));
        (1, pure Expire);
        (1, map (fun f -> Drop_flow f) (int_range 1 4));
        (1, pure Clear);
      ]
  in
  list_size (int_range 100 300) (pair (float_range 0.0 0.3) op)

let pit_matches_model_prop =
  QCheck2.Test.make ~name:"pit matches the hash-table model" ~count:200
    ~print:
      QCheck2.Print.(list (pair float (fun op -> show_pit_op op)))
    pit_script_gen
    (fun script ->
      let module Trace = Leotp_net.Trace in
      let pit = Leotp.Pit.create ~label:"m" ~expiry:1.0 () in
      let model = Pit_model.create ~label:"m" ~expiry:1.0 in
      let events = ref [] in
      let recorder = Trace.create ~capacity:1 ~digesting:false () in
      Trace.add_sink recorder (fun r -> events := r.Trace.event :: !events);
      let traced f =
        events := [];
        let x = f () in
        (x, List.rev !events)
      in
      let range r = (r * 1400, (r + 1) * 1400) in
      let now = ref 0.0 in
      let step (dt, op) =
        now := !now +. dt;
        let now = !now in
        let agree (real, real_ev) (ref_, ref_ev) =
          if real <> ref_ then QCheck2.Test.fail_reportf "%s: result" (show_pit_op op);
          if real_ev <> ref_ev then
            QCheck2.Test.fail_reportf "%s: trace" (show_pit_op op)
        in
        (match op with
        | Register (flow, r, consumer) ->
          let lo, hi = range r in
          agree
            (traced (fun () ->
                 [ Bool.to_int (Leotp.Pit.register pit ~now ~flow ~lo ~hi ~consumer) ]))
            (traced (fun () ->
                 [ Bool.to_int (Pit_model.register model ~now ~flow ~lo ~hi ~consumer) ]))
        | Satisfy (flow, r) ->
          let lo, hi = range r in
          agree
            (traced (fun () ->
                 let n = Leotp.Pit.satisfy pit ~now ~flow ~lo ~hi in
                 List.init n (Leotp.Pit.waiter pit)))
            (traced (fun () -> Pit_model.satisfy model ~now ~flow ~lo ~hi))
        | Expire ->
          agree
            (traced (fun () -> Leotp.Pit.expire_before pit ~now; []))
            (traced (fun () -> Pit_model.expire_before model ~now; []))
        | Drop_flow flow ->
          agree
            (traced (fun () -> Leotp.Pit.drop_flow pit ~flow; []))
            (traced (fun () -> Pit_model.drop_flow model ~flow; []))
        | Clear ->
          agree
            (traced (fun () -> Leotp.Pit.clear pit; []))
            (traced (fun () -> Pit_model.clear model; [])));
        if Leotp.Pit.pending pit <> Pit_model.pending model then
          QCheck2.Test.fail_reportf "%s: pending %d, model %d" (show_pit_op op)
            (Leotp.Pit.pending pit) (Pit_model.pending model)
      in
      Trace.with_recorder recorder ~clock:(fun () -> !now) (fun () ->
          List.iter step script);
      true)

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
          QCheck_alcotest.to_alcotest pit_matches_model_prop;
        ] );
      ( "multicast",
        [ Alcotest.test_case "shared uplink" `Quick test_multicast_shares_uplink ] );
      ( "bridge",
        [
          Alcotest.test_case "lossy end-to-end" `Quick test_bridge_end_to_end;
          Alcotest.test_case "clean path" `Quick test_bridge_clean;
        ] );
    ]
