(* Tests for the packet-level network simulator: link timing, queuing,
   loss, flush/epoch semantics, topology routing, dynamic paths. *)

open Leotp_net

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

let setup () =
  Packet.reset_ids ();
  Node.reset_ids ();
  (Leotp_sim.Engine.create (), Leotp_util.Rng.create ~seed:5)

let mk_link ?(bw = 8.0) ?(delay = 0.01) ?(plr = 0.0) ?buffer_bytes engine rng =
  Link.create engine ~name:"l"
    ~bandwidth:(Bandwidth.Constant (mbps bw))
    ~delay ~plr ?buffer_bytes ~rng ()

(* Raw test packets come from the pool like everything else. *)
let mk ~src ~dst ~flow ~size =
  Packet_pool.acquire ~src ~dst ~flow ~size ~kind:Packet.kind_raw

let raw_pkt ?(size = 1000) () = mk ~src:1 ~dst:2 ~flow:0 ~size

(* ------------------------------------------------------------------ *)
(* Bandwidth *)

let test_bandwidth_constant () =
  Alcotest.(check (float 1e-9)) "constant" 5.0 (Bandwidth.at (Constant 5.0) 99.0)

let test_bandwidth_square () =
  let b = Bandwidth.Square { mean = 10.0; amplitude = 2.0; period = 2.0 } in
  Alcotest.(check (float 1e-9)) "high phase" 12.0 (Bandwidth.at b 0.5);
  Alcotest.(check (float 1e-9)) "low phase" 8.0 (Bandwidth.at b 1.5);
  Alcotest.(check (float 1e-9)) "next period" 12.0 (Bandwidth.at b 2.5)

(* ------------------------------------------------------------------ *)
(* Link *)

let test_link_timing () =
  let engine, rng = setup () in
  (* 8 Mbps = 1e6 bytes/s; 1000 B packet -> 1 ms serialization + 10 ms prop. *)
  let link = mk_link engine rng in
  let arrived = ref Float.nan in
  Link.set_sink link (fun _ -> arrived := Leotp_sim.Engine.now engine);
  Link.send link (raw_pkt ());
  Leotp_sim.Engine.run engine;
  Alcotest.(check (float 1e-9)) "serialization + propagation" 0.011 !arrived

let test_link_queueing () =
  let engine, rng = setup () in
  let link = mk_link engine rng in
  let times = ref [] in
  Link.set_sink link (fun _ -> times := Leotp_sim.Engine.now engine :: !times);
  (* Three back-to-back packets serialize sequentially: 1ms each. *)
  for _ = 1 to 3 do
    Link.send link (raw_pkt ())
  done;
  Leotp_sim.Engine.run engine;
  Alcotest.(check (list (float 1e-6)))
    "pipelined arrivals" [ 0.011; 0.012; 0.013 ] (List.rev !times);
  Alcotest.(check int) "delivered" 3 (Link.stats link).packets_delivered

let test_link_tail_drop () =
  let engine, rng = setup () in
  let link = mk_link ~buffer_bytes:2500 engine rng in
  let delivered = ref 0 in
  Link.set_sink link (fun _ -> incr delivered);
  (* 1000 B each: first starts serializing (leaves queue), then queue holds
     2 more (2000 <= 2500); the rest drop. *)
  for _ = 1 to 6 do
    Link.send link (raw_pkt ())
  done;
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "delivered" 3 !delivered;
  Alcotest.(check int) "tail drops" 3 (Link.stats link).drops_tail

let test_link_loss_all () =
  let engine, rng = setup () in
  let link = mk_link ~plr:1.0 engine rng in
  let delivered = ref 0 in
  Link.set_sink link (fun _ -> incr delivered);
  for _ = 1 to 10 do
    Link.send link (raw_pkt ())
  done;
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "all lost" 0 !delivered;
  Alcotest.(check int) "error drops" 10 (Link.stats link).drops_error

let test_link_loss_rate () =
  let engine, rng = setup () in
  let link = mk_link ~plr:0.1 ~buffer_bytes:max_int engine rng in
  let delivered = ref 0 in
  Link.set_sink link (fun _ -> incr delivered);
  let n = 5000 in
  for _ = 1 to n do
    Link.send link (raw_pkt ())
  done;
  Leotp_sim.Engine.run engine;
  let rate = 1.0 -. (float_of_int !delivered /. float_of_int n) in
  Alcotest.(check bool)
    (Printf.sprintf "empirical plr %.3f near 0.1" rate)
    true
    (Float.abs (rate -. 0.1) < 0.02)

let test_link_flush () =
  let engine, rng = setup () in
  let link = mk_link engine rng in
  let delivered = ref 0 in
  Link.set_sink link (fun _ -> incr delivered);
  for _ = 1 to 5 do
    Link.send link (raw_pkt ())
  done;
  (* Flush at 0.5 ms: packet 1 is mid-serialization, others queued. *)
  ignore (Leotp_sim.Engine.schedule engine ~after:0.0005 (fun () -> Link.flush link));
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "all dropped" 0 !delivered;
  Alcotest.(check int) "flush drops" 5 (Link.stats link).drops_flush

let test_link_flush_in_flight () =
  let engine, rng = setup () in
  let link = mk_link engine rng in
  let delivered = ref 0 in
  Link.set_sink link (fun _ -> incr delivered);
  Link.send link (raw_pkt ());
  (* Flush at 5 ms: the packet finished serializing at 1 ms and is in
     propagation; it must still be dropped. *)
  ignore (Leotp_sim.Engine.schedule engine ~after:0.005 (fun () -> Link.flush link));
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "in-flight dropped" 0 !delivered

(* Reorder jitter, duplicates and corruption on one link, a flush while
   packets serialize and propagate, then a down/up cycle.  The
   (time, packet id) delivery sequence and the stats are pinned: they
   move if the epoch checks, the order of the rng draws (loss, reorder,
   dup) or the accounting of in-flight packets change. *)
let test_link_faults_pinned () =
  let engine, rng = setup () in
  let live0 = Packet_pool.live_count () in
  let link = mk_link ~delay:0.02 ~plr:0.1 engine rng in
  Link.set_reorder link ~prob:0.3 ~jitter:0.005;
  Link.set_dup_prob link 0.3;
  let log = ref [] in
  Link.set_sink link (fun p ->
      log := (Leotp_sim.Engine.now engine, p.Packet.id) :: !log;
      Packet_pool.release p);
  let burst n =
    for _ = 1 to n do
      Link.send link (raw_pkt ())
    done
  in
  burst 12;
  Leotp_sim.Engine.run ~until:0.026 engine;
  Alcotest.(check int) "in flight at the flush" 5 (Link.in_flight link);
  Link.flush link;
  burst 12;
  Leotp_sim.Engine.run ~until:0.052 engine;
  Alcotest.(check int) "in flight when going down" 8 (Link.in_flight link);
  Link.set_up link false;
  burst 3;
  Link.set_up link true;
  burst 20;
  Leotp_sim.Engine.run engine;
  Alcotest.(check (list (pair (float 0.0) int)))
    "deliveries"
    [
      (0x1.5810624dd2f1bp-6, 1);
      (0x1.6872b020c49bap-6, 2);
      (0x1.78d4fdf3b645ap-6, 3);
      (0x1.999999999999ap-6, 5);
      (0x1.810624dd2f1aap-5, 13);
      (0x1.89374bc6a7efap-5, 14);
      (0x1.999999999999ap-5, 16);
      (0x1.999999999999ap-5, 16);
      (0x1.a1cac083126eap-5, 17);
      (0x1.2b020c49ba5e3p-4, 28);
      (0x1.2b020c49ba5e3p-4, 28);
      (0x1.3333333333333p-4, 30);
      (0x1.3b645a1cac083p-4, 32);
      (0x1.4395810624dd3p-4, 34);
      (0x1.4395810624dd3p-4, 34);
      (0x1.47ae147ae147bp-4, 35);
      (0x1.488d40750d7fp-4, 31);
      (0x1.53f7ced916873p-4, 38);
      (0x1.5810624dd2f1bp-4, 39);
      (0x1.5c28f5c28f5c3p-4, 40);
      (0x1.5d8b2fac685c7p-4, 37);
      (0x1.5d8b2fac685c7p-4, 37);
      (0x1.604189374bc6bp-4, 41);
      (0x1.645a1cac08313p-4, 42);
      (0x1.71bf4d5032025p-4, 44);
      (0x1.764ffee15aa35p-4, 43);
      (0x1.764ffee15aa35p-4, 43);
      (0x1.781930c3ce473p-4, 46);
      (0x1.78d4fdf3b645bp-4, 47);
      (0x1.7bc14c8fdba43p-4, 45);
    ]
    (List.rev !log);
  let s = Link.stats link in
  Alcotest.(check (list int))
    "in, delivered, bytes, tail, error, flush, down, dups"
    [ 47; 30; 30000; 0; 6; 13; 3; 5 ]
    [
      s.packets_in;
      s.packets_delivered;
      s.bytes_delivered;
      s.drops_tail;
      s.drops_error;
      s.drops_flush;
      s.drops_down;
      s.dups;
    ];
  Alcotest.(check int) "pool live delta" 0 (Packet_pool.live_count () - live0);
  Alcotest.(check int) "nothing in flight" 0 (Link.in_flight link)

let test_link_time_varying_bw () =
  let engine, rng = setup () in
  let link = mk_link engine rng in
  (* Step down to 0.8 Mbps at t=0.1, as a replayed path-trace record
     changes a rate: a 1000 B packet then takes 10 ms. *)
  ignore
    (Leotp_sim.Engine.schedule_at engine ~time:0.1 (fun () ->
         Link.set_bandwidth link (Bandwidth.Constant (mbps 0.8))));
  let times = ref [] in
  Link.set_sink link (fun _ -> times := Leotp_sim.Engine.now engine :: !times);
  Link.send link (raw_pkt ());
  ignore
    (Leotp_sim.Engine.schedule engine ~after:0.2 (fun () ->
         Link.send link (raw_pkt ())));
  Leotp_sim.Engine.run engine;
  match List.rev !times with
  | [ t1; t2 ] ->
    Alcotest.(check (float 1e-6)) "fast epoch" 0.011 t1;
    Alcotest.(check (float 1e-6)) "slow epoch" 0.22 t2
  | _ -> Alcotest.fail "expected two arrivals"

(* ------------------------------------------------------------------ *)
(* Topology: chain *)

let test_chain_end_to_end () =
  let engine, rng = setup () in
  let spec =
    Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 8.0)) ~delay:0.01 ()
  in
  let chain = Topology.chain engine ~rng [| spec; spec; spec |] in
  let src = chain.Topology.nodes.(0) in
  let dst = chain.Topology.nodes.(3) in
  let got = ref None in
  Node.set_handler dst (fun pkt -> got := Some pkt);
  let pkt =
    mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:1 ~size:1000
  in
  Node.send src pkt;
  Leotp_sim.Engine.run engine;
  (match !got with
  | Some p ->
    Alcotest.(check int) "flow" 1 p.Packet.flow;
    (* 3 hops x (1 ms serialization + 10 ms prop) *)
    Alcotest.(check (float 1e-6)) "arrival" 0.033 (Leotp_sim.Engine.now engine)
  | None -> Alcotest.fail "packet not delivered");
  (* Reverse direction also routes. *)
  let back = ref false in
  Node.set_handler src (fun _ -> back := true);
  Node.send dst
    (mk ~src:(Node.id dst) ~dst:(Node.id src) ~flow:1 ~size:100);
  Leotp_sim.Engine.run engine;
  Alcotest.(check bool) "reverse delivery" true !back

let test_chain_middle_routing () =
  let engine, rng = setup () in
  let spec =
    Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 8.0)) ~delay:0.001 ()
  in
  let chain = Topology.chain engine ~rng [| spec; spec; spec; spec |] in
  (* Node 1 can reach node 3 (forward) and node 0 (backward). *)
  let n1 = chain.Topology.nodes.(1) in
  let hits = ref [] in
  let watch i =
    Node.set_handler chain.Topology.nodes.(i) (fun _ ->
        hits := i :: !hits)
  in
  watch 3;
  watch 0;
  Node.send n1
    (mk ~src:(Node.id n1) ~dst:(Node.id chain.Topology.nodes.(3))
       ~flow:0 ~size:100);
  Node.send n1
    (mk ~src:(Node.id n1) ~dst:(Node.id chain.Topology.nodes.(0))
       ~flow:0 ~size:100);
  Leotp_sim.Engine.run engine;
  Alcotest.(check (list int)) "both delivered" [ 0; 3 ] (List.sort compare !hits)

(* ------------------------------------------------------------------ *)
(* Topology: dumbbell *)

let test_dumbbell_routing () =
  let engine, rng = setup () in
  let access =
    Array.init 3 (fun i ->
        Topology.hop
          ~bandwidth:(Bandwidth.Constant (mbps 100.0))
          ~delay:(0.005 *. float_of_int (i + 1))
          ())
  in
  let bottleneck =
    Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 5.0)) ~delay:0.01 ()
  in
  let db = Topology.dumbbell engine ~rng ~access ~bottleneck in
  let delivered = Array.make 3 false in
  Array.iteri
    (fun i r -> Node.set_handler r (fun _ -> delivered.(i) <- true))
    db.Topology.receivers;
  Array.iteri
    (fun i s ->
      Node.send s
        (mk ~src:(Node.id s)
           ~dst:(Node.id db.Topology.receivers.(i))
           ~flow:i ~size:500))
    db.Topology.senders;
  Leotp_sim.Engine.run engine;
  Alcotest.(check (array bool))
    "all flows cross" [| true; true; true |] delivered

let test_dumbbell_shared_bottleneck () =
  let engine, rng = setup () in
  let access =
    Array.init 2 (fun _ ->
        Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 100.0)) ~delay:0.001 ())
  in
  let bottleneck =
    Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 8.0)) ~delay:0.001 ()
  in
  let db = Topology.dumbbell engine ~rng ~access ~bottleneck in
  (* Both senders flood 10 packets each; bottleneck serializes all 20. *)
  Array.iteri
    (fun i s ->
      for _ = 1 to 10 do
        Node.send s
          (mk ~src:(Node.id s)
             ~dst:(Node.id db.Topology.receivers.(i))
             ~flow:i ~size:1000)
      done)
    db.Topology.senders;
  Leotp_sim.Engine.run engine;
  let st = Link.stats db.Topology.bottleneck.Topology.fwd in
  Alcotest.(check int) "bottleneck carried all" 20 st.packets_delivered

(* ------------------------------------------------------------------ *)
(* Dynamic path *)

let hopstate delay =
  {
    Dynamic_path.delay;
    bandwidth = Bandwidth.Constant (mbps 8.0);
    plr = 0.0;
  }

let test_dynamic_path_reconfig () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:4
      ~initial:[| hopstate 0.01; hopstate 0.01 |]
      ()
  in
  Alcotest.(check int) "active" 2 (Dynamic_path.active_hops dp);
  let chain = Dynamic_path.chain dp in
  let src = chain.Topology.nodes.(0)
  and dst = chain.Topology.nodes.(4) in
  let arrivals = ref [] in
  Node.set_handler dst (fun _ ->
      arrivals := Leotp_sim.Engine.now engine :: !arrivals);
  let send () =
    Node.send src
      (mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:0 ~size:1000)
  in
  send ();
  Leotp_sim.Engine.run engine;
  (* 2 active hops (10ms+1ms each) + 2 pass-through hops (~0). *)
  (match !arrivals with
  | [ t ] -> Alcotest.(check bool) "fast path" true (t < 0.025)
  | _ -> Alcotest.fail "expected one arrival");
  (* Grow to 4 real hops. *)
  Dynamic_path.apply dp
    [| hopstate 0.01; hopstate 0.01; hopstate 0.01; hopstate 0.01 |];
  arrivals := [];
  let t0 = Leotp_sim.Engine.now engine in
  send ();
  Leotp_sim.Engine.run engine;
  (match !arrivals with
  | [ t ] ->
    Alcotest.(check bool) "slower path" true (t -. t0 > 0.04 && t -. t0 < 0.05)
  | _ -> Alcotest.fail "expected one arrival");
  Alcotest.(check int) "switches counted" 1 (Dynamic_path.switch_count dp)

let test_dynamic_path_switch_drops () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:2
      ~initial:[| hopstate 0.05; hopstate 0.05 |]
      ()
  in
  let chain = Dynamic_path.chain dp in
  let src = chain.Topology.nodes.(0)
  and dst = chain.Topology.nodes.(2) in
  let count = ref 0 in
  Node.set_handler dst (fun _ -> incr count);
  Node.send src
    (mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:0 ~size:1000);
  (* Switch while the packet is in flight on hop 0. *)
  Dynamic_path.schedule dp [ (0.02, [| hopstate 0.04; hopstate 0.05 |]) ];
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "in-flight dropped on switch" 0 !count;
  (* A later packet crosses the new path fine. *)
  Node.send src
    (mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:0 ~size:1000);
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "post-switch delivery" 1 !count

let test_dynamic_path_same_snapshot_no_switch () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:2
      ~initial:[| hopstate 0.05; hopstate 0.05 |]
      ()
  in
  Dynamic_path.apply dp [| hopstate 0.05; hopstate 0.05 |];
  Alcotest.(check int) "no flush for identical delays" 0
    (Dynamic_path.switch_count dp);
  ignore engine

(* Regression: the switch detector must flag any above-epsilon change,
   not just delay.  The pre-fix [update_link] compared delay only, so a
   pure bandwidth or loss reconfiguration neither counted as a switch
   nor flushed in-flight packets. *)
let test_dynamic_path_bandwidth_only_switch () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:2
      ~initial:[| hopstate 0.05; hopstate 0.05 |]
      ()
  in
  let chain = Dynamic_path.chain dp in
  let src = chain.Topology.nodes.(0)
  and dst = chain.Topology.nodes.(2) in
  let count = ref 0 in
  Node.set_handler dst (fun _ -> incr count);
  Node.send src
    (mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:0 ~size:1000);
  (* Same delays, bottleneck cut 8 -> 2 Mbps (well past the 4 Mbps
     epsilon): still a path switch, so the in-flight packet must be
     flushed and the switch counted. *)
  Dynamic_path.schedule dp
    [
      ( 0.02,
        [|
          {
            (hopstate 0.05) with
            Dynamic_path.bandwidth = Bandwidth.Constant (mbps 2.0);
          };
          hopstate 0.05;
        |] );
    ];
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "bandwidth-only change flushes in-flight" 0 !count;
  Alcotest.(check int) "bandwidth-only change counts" 1
    (Dynamic_path.switch_count dp)

let test_dynamic_path_plr_only_switch () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:2
      ~initial:[| hopstate 0.05; hopstate 0.05 |]
      ()
  in
  Dynamic_path.apply dp
    [| { (hopstate 0.05) with Dynamic_path.plr = 0.02 }; hopstate 0.05 |];
  Alcotest.(check int) "plr-only change counts" 1
    (Dynamic_path.switch_count dp);
  ignore engine

let test_dynamic_path_below_epsilon_no_switch () =
  let engine, rng = setup () in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops:2
      ~initial:[| hopstate 0.05; hopstate 0.05 |]
      ()
  in
  (* Wiggles below every per-dimension epsilon (50us / 4 Mbps / 5e-3)
     are parameter drift, not a handover: no flush, no switch. *)
  Dynamic_path.apply dp
    [|
      {
        Dynamic_path.delay = 0.05 +. 20e-6;
        bandwidth = Bandwidth.Constant (mbps 8.4);
        plr = 2e-3;
      };
      hopstate 0.05;
    |];
  Alcotest.(check int) "sub-epsilon drift is not a switch" 0
    (Dynamic_path.switch_count dp);
  ignore engine

(* Trace replay holds each route record until the next one: a 2-hop
   route at 0 s, a 3-hop route with other delays at 1 s, an outage at
   2 s and the first route again at 3 s. *)
let test_dynamic_path_trace_replay () =
  let engine, rng = setup () in
  let hop delay bw_mbps plr =
    { Path_trace.delay; bw_mbps; plr; kind = Path_trace.Gsl }
  in
  let route_a = [| hop 0.01 10.0 0.0; hop 0.02 20.0 0.0 |]
  and route_b =
    [| hop 0.03 20.0 0.02; hop 0.005 20.0 0.0; hop 0.015 30.0 0.001 |]
  in
  let route hops = Path_trace.Route { hops; handover = true } in
  let trace =
    {
      Path_trace.meta =
        {
          seed = 1;
          src = "A";
          dst = "B";
          isls = true;
          step = 1.0;
          horizon = 4.0;
        };
      records =
        [
          { time = 0.0; event = route route_a };
          { time = 1.0; event = route route_b };
          { time = 2.0; event = Path_trace.No_route };
          { time = 3.0; event = route route_a };
        ];
    }
  in
  let dp = Dynamic_path.of_trace engine ~rng trace in
  let chain = Dynamic_path.chain dp in
  let src = chain.Topology.nodes.(0)
  and dst = chain.Topology.nodes.(3) in
  let arrivals = ref 0 in
  Node.set_handler dst (fun pkt ->
      incr arrivals;
      Packet_pool.release pkt);
  let offer () =
    Node.send src
      (mk ~src:(Node.id src) ~dst:(Node.id dst) ~flow:0 ~size:1000)
  in
  let drops_down () =
    (Link.stats chain.Topology.hops.(0).Topology.fwd).Link.drops_down
  in
  (* Surplus hops are pass-through: 20 us, 10 Gbps, no loss. *)
  let expected (hops : Path_trace.hop array) i =
    if i < Array.length hops then
      let h = hops.(i) in
      (h.Path_trace.delay, h.Path_trace.bw_mbps, h.Path_trace.plr)
    else (20e-6, 10_000.0, 0.0)
  in
  let check_at time hops ~switches =
    Leotp_sim.Engine.run engine ~until:time;
    let at = Printf.sprintf "t=%g " time in
    Array.iteri
      (fun i (d : Topology.duplex) ->
        let delay, bw_mbps, plr = expected hops i in
        List.iter
          (fun (dir, l) ->
            let name = Printf.sprintf "%shop %d %s" at i dir in
            Alcotest.(check (float 0.0)) (name ^ " delay") delay (Link.delay l);
            Alcotest.(check (float 1e-6)) (name ^ " rate") (mbps bw_mbps)
              (Link.current_rate l);
            Alcotest.(check (float 0.0)) (name ^ " plr") plr (Link.plr l))
          [ ("fwd", d.Topology.fwd); ("rev", d.Topology.rev) ])
      chain.Topology.hops;
    Alcotest.(check int) (at ^ "active hops") (Array.length hops)
      (Dynamic_path.active_hops dp);
    Alcotest.(check int) (at ^ "switches") switches
      (Dynamic_path.switch_count dp)
  in
  check_at 0.5 route_a ~switches:0;
  check_at 1.5 route_b ~switches:1;
  check_at 2.5 route_b ~switches:1;
  offer ();
  Alcotest.(check int) "offered during the outage" 1 (drops_down ());
  check_at 3.5 route_a ~switches:2;
  offer ();
  Leotp_sim.Engine.run engine ~until:4.0;
  Alcotest.(check int) "no drop after the outage" 1 (drops_down ());
  Alcotest.(check int) "delivered after the outage" 1 !arrivals

(* [of_trace] builds the path a trace describes: two leading outage
   records hold it down on the first route's parameters, a 30-hop route
   is cut to its Consumer-side 24 hops, and a trace with no route record
   has no path at all. *)
let test_dynamic_path_of_trace () =
  let engine, rng = setup () in
  let hop i =
    {
      Path_trace.delay = 0.001 *. float_of_int (i + 1);
      bw_mbps = 20.0;
      plr = 0.0;
      kind = Path_trace.Isl;
    }
  in
  let short = Array.init 2 (fun i -> hop (100 + i))
  and long = Array.init 30 hop in
  let route hops = Path_trace.Route { hops; handover = false } in
  let trace records =
    {
      Path_trace.meta =
        { seed = 1; src = "A"; dst = "B"; isls = true; step = 1.0; horizon = 4.0 };
      records;
    }
  in
  let dp =
    Dynamic_path.of_trace engine ~rng
      (trace
         [
           { time = 0.0; event = Path_trace.No_route };
           { time = 1.0; event = Path_trace.No_route };
           { time = 2.0; event = route short };
           { time = 3.0; event = route long };
         ])
  in
  let chain = Dynamic_path.chain dp in
  Alcotest.(check int) "capped at 24 hops" 24 (Array.length chain.Topology.hops);
  let delay i = Link.delay chain.Topology.hops.(i).Topology.fwd in
  let first = chain.Topology.hops.(0).Topology.fwd in
  let offer () =
    Link.send first (raw_pkt ());
    (Link.stats first).Link.drops_down
  in
  Leotp_sim.Engine.run engine ~until:0.5;
  Alcotest.(check int) "starts on the first route" 2 (Dynamic_path.active_hops dp);
  Alcotest.(check (float 0.0)) "its first hop" short.(0).Path_trace.delay (delay 0);
  Alcotest.(check (float 0.0)) "pass-through past it" 20e-6 (delay 2);
  Alcotest.(check int) "dark until the route's record" 1 (offer ());
  Leotp_sim.Engine.run engine ~until:3.5;
  Alcotest.(check int) "up once the route applies" 1 (offer ());
  Alcotest.(check int) "long route cut to 24" 24 (Dynamic_path.active_hops dp);
  Alcotest.(check (float 0.0)) "its 24th hop" long.(23).Path_trace.delay (delay 23);
  List.iter
    (fun (name, records) ->
      Alcotest.check_raises name
        (Invalid_argument "Dynamic_path.of_trace: trace has no route record")
        (fun () -> ignore (Dynamic_path.of_trace engine ~rng (trace records))))
    [
      ("no records", []);
      ("outage records only", [ { time = 0.0; event = Path_trace.No_route } ]);
    ]

(* ------------------------------------------------------------------ *)
(* Node routing edge cases *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A warm lossy hop, send -> serialized -> propagated -> sink, allocates
   nothing but the engine clock's box when an event advances time (at
   most 2 words per event): the link posts its delays through the
   engine's slot and draws its losses unboxed. *)
let test_link_hop_allocation () =
  let engine, rng = setup () in
  let l = mk_link ~plr:0.1 engine rng in
  let delivered = ref 0 in
  Link.set_sink l (fun pkt ->
      incr delivered;
      Packet_pool.release pkt);
  let burst n () =
    for _ = 1 to n do
      Link.send l (raw_pkt ())
    done;
    Leotp_sim.Engine.run engine
  in
  burst 200 ();
  let events = Leotp_sim.Engine.events_processed engine in
  let got = !delivered in
  let w = minor_words (burst 200) in
  let events = Leotp_sim.Engine.events_processed engine - events in
  Alcotest.(check bool) "some lost" true (!delivered - got < 200);
  Alcotest.(check bool) "most delivered" true (!delivered - got > 150);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over %d events" w events)
    true
    (w <= 2.0 *. float_of_int events)

(* [Node.send] finds the egress link without allocating. *)
let test_node_send_allocation () =
  let engine, rng = setup () in
  let n = Node.create ~name:"hop" in
  let l = mk_link engine rng in
  Link.set_sink l Packet_pool.release;
  Node.add_route n ~dst:2 l;
  let sends k () =
    for _ = 1 to k do
      Node.send n (raw_pkt ())
    done
  in
  sends 50 ();
  Leotp_sim.Engine.run engine;
  let w = minor_words (sends 50) in
  Leotp_sim.Engine.run engine;
  Alcotest.(check int) "every packet routed" 0 (Node.no_route_drops n);
  Alcotest.(check (float 0.0)) "words" 0.0 w

let test_no_route_drops () =
  let engine, rng = setup () in
  ignore rng;
  ignore engine;
  let n = Node.create ~name:"lonely" in
  Node.send n (mk ~src:1 ~dst:999 ~flow:0 ~size:100);
  Alcotest.(check int) "counted" 1 (Node.no_route_drops n);
  Node.add_route n ~dst:999
    (Link.create (Leotp_sim.Engine.create ()) ~name:"l"
       ~bandwidth:(Bandwidth.Constant 1e6) ~delay:0.01
       ~rng:(Leotp_util.Rng.create ~seed:1) ());
  Node.send n (mk ~src:1 ~dst:999 ~flow:0 ~size:100);
  Alcotest.(check int) "routed now" 1 (Node.no_route_drops n);
  Node.clear_routes n;
  Node.send n (mk ~src:1 ~dst:999 ~flow:0 ~size:100);
  Alcotest.(check int) "cleared" 2 (Node.no_route_drops n)

(* ------------------------------------------------------------------ *)
(* Flow metrics *)

let test_flow_metrics () =
  let m = Flow_metrics.create ~flow:7 in
  Flow_metrics.set_started m 1.0;
  Flow_metrics.on_send m ~bytes:1000;
  Flow_metrics.on_send m ~bytes:1000;
  Flow_metrics.on_retransmit m;
  (Flow_metrics.sent m).(0) <- 1.95;
  Flow_metrics.on_deliver m ~now:2.0 ~bytes:1000 ~retx:false;
  (Flow_metrics.sent m).(0) <- 2.75;
  Flow_metrics.on_deliver m ~now:3.0 ~bytes:1000 ~retx:true;
  Flow_metrics.set_finished m 3.0;
  Alcotest.(check int) "app bytes" 2000 (Flow_metrics.app_bytes m);
  Alcotest.(check int) "wire bytes" 2000 (Flow_metrics.wire_bytes_sent m);
  Alcotest.(check int) "retx" 1 (Flow_metrics.retransmissions m);
  Alcotest.(check (option (float 1e-9)))
    "completion" (Some 2.0)
    (Flow_metrics.completion_time m);
  Alcotest.(check (float 1e-9))
    "goodput" 800.0
    (Flow_metrics.goodput m ~lo:1.0 ~hi:3.5);
  Alcotest.(check int) "retx owd samples" 1
    (Leotp_util.Stats.count (Flow_metrics.retx_owd m));
  Alcotest.(check (float 1e-9))
    "mean owd, now - first sent" 0.15
    (Leotp_util.Stats.mean (Flow_metrics.owd m))

let () =
  Alcotest.run "leotp_net"
    [
      ( "bandwidth",
        [
          Alcotest.test_case "constant" `Quick test_bandwidth_constant;
          Alcotest.test_case "square" `Quick test_bandwidth_square;
        ] );
      ( "link",
        [
          Alcotest.test_case "timing" `Quick test_link_timing;
          Alcotest.test_case "warm lossy hop allocation" `Quick
            test_link_hop_allocation;
          Alcotest.test_case "queueing" `Quick test_link_queueing;
          Alcotest.test_case "tail drop" `Quick test_link_tail_drop;
          Alcotest.test_case "loss all" `Quick test_link_loss_all;
          Alcotest.test_case "loss rate" `Quick test_link_loss_rate;
          Alcotest.test_case "flush queued" `Quick test_link_flush;
          Alcotest.test_case "flush in-flight" `Quick test_link_flush_in_flight;
          Alcotest.test_case "faults replay pinned" `Quick test_link_faults_pinned;
          Alcotest.test_case "time-varying bandwidth" `Quick
            test_link_time_varying_bw;
        ] );
      ( "topology",
        [
          Alcotest.test_case "chain end-to-end" `Quick test_chain_end_to_end;
          Alcotest.test_case "chain middle routing" `Quick
            test_chain_middle_routing;
          Alcotest.test_case "dumbbell routing" `Quick test_dumbbell_routing;
          Alcotest.test_case "dumbbell bottleneck" `Quick
            test_dumbbell_shared_bottleneck;
        ] );
      ( "dynamic_path",
        [
          Alcotest.test_case "reconfig" `Quick test_dynamic_path_reconfig;
          Alcotest.test_case "switch drops in-flight" `Quick
            test_dynamic_path_switch_drops;
          Alcotest.test_case "identical snapshot no switch" `Quick
            test_dynamic_path_same_snapshot_no_switch;
          Alcotest.test_case "bandwidth-only switch" `Quick
            test_dynamic_path_bandwidth_only_switch;
          Alcotest.test_case "plr-only switch" `Quick
            test_dynamic_path_plr_only_switch;
          Alcotest.test_case "below-epsilon no switch" `Quick
            test_dynamic_path_below_epsilon_no_switch;
          Alcotest.test_case "trace replay holds each record" `Quick
            test_dynamic_path_trace_replay;
          Alcotest.test_case "of_trace" `Quick test_dynamic_path_of_trace;
        ] );
      ( "node",
        [
          Alcotest.test_case "no-route drops" `Quick test_no_route_drops;
          Alcotest.test_case "send allocates nothing" `Quick
            test_node_send_allocation;
        ] );
      ( "flow_metrics",
        [ Alcotest.test_case "accounting" `Quick test_flow_metrics ] );
    ]
