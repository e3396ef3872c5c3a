(* Tests for the TCP substrate: congestion controllers in isolation, the
   sender/receiver engine end to end (timing, loss recovery, reliability
   under random loss), and Split TCP proxies. *)

open Leotp_tcp
module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Bandwidth = Leotp_net.Bandwidth
module Topology = Leotp_net.Topology
module Flow_metrics = Leotp_net.Flow_metrics

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

let setup () =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  (Engine.create (), Leotp_util.Rng.create ~seed:7)

let build_chain engine rng ~hops ~bw_mbps ~delay ~plr =
  let spec =
    Topology.hop ~plr ~bandwidth:(Bandwidth.Constant (mbps bw_mbps)) ~delay ()
  in
  Topology.chain engine ~rng (Array.make hops spec)

(* ------------------------------------------------------------------ *)
(* Congestion controllers in isolation *)

let ack cc ?(rtt = Some 0.05) ?(bw = None) ?(inflight = 0) ~now ~acked () =
  cc.Cc.on_ack
    { Cc.now; acked_bytes = acked; rtt_sample = rtt; bw_sample = bw; inflight }

(* The pacing rate as the sender's gate reads it: [None] when unpaced. *)
let pacing cc =
  let r = cc.Cc.window.Cc.pacing_rate in
  if r > 0.0 then Some r else None

let test_cc_registry () =
  List.iter
    (fun algo ->
      let name = Cc.algo_name algo in
      Alcotest.(check bool)
        (name ^ " round-trips")
        true
        (Cc.algo_of_name name = Some algo))
    Cc.all;
  Alcotest.(check bool) "unknown" true (Cc.algo_of_name "reno2000" = None)

let test_newreno_slow_start_and_ca () =
  let cc = Newreno.create ~mss:1000 ~now:0.0 in
  let w0 = cc.Cc.window.Cc.cwnd in
  ack cc ~now:0.1 ~acked:1000 ();
  Alcotest.(check (float 1e-6)) "ss doubles per ack" (w0 +. 1000.0) cc.Cc.window.Cc.cwnd;
  cc.Cc.on_loss ~now:0.2 ~inflight:5000;
  let after_loss = cc.Cc.window.Cc.cwnd in
  Alcotest.(check (float 1e-6)) "halved" ((w0 +. 1000.0) /. 2.0) after_loss;
  ack cc ~now:0.3 ~acked:1000 ();
  let growth = cc.Cc.window.Cc.cwnd -. after_loss in
  Alcotest.(check bool)
    "CA additive (~mss^2/cwnd)" true
    (growth > 0.0 && growth < 1000.0)

let test_newreno_rto () =
  let cc = Newreno.create ~mss:1000 ~now:0.0 in
  cc.Cc.on_rto ~now:0.1;
  Alcotest.(check (float 1e-6)) "cwnd back to 1 mss" 1000.0 cc.Cc.window.Cc.cwnd

let test_hybla_rho_scaling () =
  (* Same loss pattern, different RTT: hybla's CA growth is ~rho^2 faster. *)
  let grow rtt =
    let cc = Hybla.create ~mss:1000 ~now:0.0 in
    (* Prime srtt, then force both into congestion avoidance at a
       comparable window via repeated loss halvings. *)
    for i = 1 to 20 do
      ack cc ~rtt:(Some rtt) ~now:(0.01 *. float_of_int i) ~acked:1000 ()
    done;
    while cc.Cc.window.Cc.cwnd > 20_000.0 do
      cc.Cc.on_loss ~now:0.5 ~inflight:0
    done;
    let w = cc.Cc.window.Cc.cwnd in
    ack cc ~rtt:(Some rtt) ~now:0.6 ~acked:1000 ();
    (cc.Cc.window.Cc.cwnd -. w) *. w (* growth*cwnd ~ rho^2*mss^2, cwnd-independent *)
  in
  let slow = grow 0.025 and fast = grow 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "long-RTT grows faster (%.1f vs %.1f)" fast slow)
    true (fast > 10.0 *. slow)

let test_vegas_backs_off_on_rtt_rise () =
  let cc = Vegas.create ~mss:1000 ~now:0.0 in
  (* Prime base_rtt at 50 ms, then inflate RTT: cwnd must shrink. *)
  ack cc ~rtt:(Some 0.05) ~now:0.0 ~acked:1000 ();
  (* Exit slow start via large diff: srtt grows. *)
  for i = 1 to 30 do
    ack cc ~rtt:(Some 0.25) ~now:(0.3 *. float_of_int i) ~acked:1000 ()
  done;
  let w = cc.Cc.window.Cc.cwnd in
  for i = 31 to 40 do
    ack cc ~rtt:(Some 0.25) ~now:(0.3 *. float_of_int i) ~acked:1000 ()
  done;
  Alcotest.(check bool) "not growing under queuing" true (cc.Cc.window.Cc.cwnd <= w)

let test_westwood_loss_uses_bwe () =
  let cc = Westwood.create ~mss:1000 ~now:0.0 in
  (* Feed bw samples of 1 MB/s with 100 ms min rtt -> BDP 100 KB. *)
  for i = 1 to 50 do
    ack cc ~rtt:(Some 0.1) ~bw:(Some 1_000_000.0)
      ~now:(0.1 *. float_of_int i)
      ~acked:1000 ()
  done;
  cc.Cc.on_loss ~now:6.0 ~inflight:0;
  let w = cc.Cc.window.Cc.cwnd in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd ~ BDP after loss (%.0f)" w)
    true
    (w > 50_000.0 && w <= 110_000.0)

let test_bbr_pacing_converges () =
  let cc = Bbr.create ~mss:1000 ~now:0.0 in
  Alcotest.(check bool)
    "no pacing before samples" true
    (pacing cc = None);
  (* Steady samples: 2 MB/s, 40 ms. *)
  for i = 1 to 200 do
    ack cc ~rtt:(Some 0.04) ~bw:(Some 2_000_000.0)
      ~now:(0.04 *. float_of_int i)
      ~acked:1000 ~inflight:10_000 ()
  done;
  (match pacing cc with
  | Some r ->
    Alcotest.(check bool)
      (Printf.sprintf "pacing near bottleneck bw (%.0f)" r)
      true
      (r > 1_000_000.0 && r < 6_000_000.0)
  | None -> Alcotest.fail "expected pacing");
  Alcotest.(check bool)
    "cwnd capped near 2 BDP" true
    (cc.Cc.window.Cc.cwnd < 4.0 *. 2_000_000.0 *. 0.04)

let test_bbr_ignores_loss () =
  let cc = Bbr.create ~mss:1000 ~now:0.0 in
  for i = 1 to 50 do
    ack cc ~rtt:(Some 0.04) ~bw:(Some 2_000_000.0)
      ~now:(0.04 *. float_of_int i)
      ~acked:1000 ()
  done;
  let w = cc.Cc.window.Cc.cwnd in
  cc.Cc.on_loss ~now:2.1 ~inflight:10_000;
  Alcotest.(check (float 1.0)) "loss-insensitive" w cc.Cc.window.Cc.cwnd

let test_pcc_rate_positive () =
  let cc = Pcc_vivace.create ~mss:1000 ~now:0.0 in
  for i = 1 to 100 do
    ack cc ~rtt:(Some 0.05) ~now:(0.05 *. float_of_int i) ~acked:5000 ()
  done;
  match pacing cc with
  | Some r -> Alcotest.(check bool) "positive rate" true (r > 0.0)
  | None -> Alcotest.fail "pcc must pace"

(* ------------------------------------------------------------------ *)
(* End-to-end engine behaviour *)

let run_transfer ?(hops = 3) ?(bw_mbps = 20.0) ?(delay = 0.005) ?(plr = 0.0)
    ?(bytes = 500_000) ?(cc = Cc.Newreno) ?(until = 60.0) () =
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops ~bw_mbps ~delay ~plr in
  let n = Array.length chain.Topology.nodes - 1 in
  let session =
    Session.connect engine ~src_node:chain.Topology.nodes.(0)
      ~dst_node:chain.Topology.nodes.(n) ~flow:1 ~cc
      ~source:(Sender.Fixed bytes) ()
  in
  Session.start session;
  Engine.run ~until engine;
  (session, engine)

let test_transfer_completes () =
  let session, _ = run_transfer () in
  Alcotest.(check bool) "sender finished" true (Sender.finished session.Session.sender);
  Alcotest.(check bool) "receiver complete" true (Receiver.complete session.Session.receiver);
  Alcotest.(check int)
    "all bytes delivered" 500_000
    (Flow_metrics.app_bytes session.Session.metrics)

let test_transfer_timing_sane () =
  (* 500 KB over 20 Mbps should take ~0.2 s + slow start; certainly < 2 s. *)
  let session, _ = run_transfer () in
  match Flow_metrics.completion_time session.Session.metrics with
  | Some ct ->
    Alcotest.(check bool)
      (Printf.sprintf "completion %.3fs reasonable" ct)
      true
      (ct > 0.2 && ct < 2.0)
  | None -> Alcotest.fail "no completion time"

let test_owd_includes_propagation () =
  let session, _ = run_transfer ~plr:0.0 () in
  let owd = Flow_metrics.owd session.Session.metrics in
  (* 3 hops x 5 ms propagation = 15 ms minimum. *)
  Alcotest.(check bool)
    "min OWD >= propagation" true
    (Leotp_util.Stats.min owd >= 0.015)

let test_reliability_under_loss () =
  let session, _ =
    run_transfer ~plr:0.02 ~bytes:300_000 ~cc:Cc.Cubic ~until:120.0 ()
  in
  Alcotest.(check bool) "complete despite 2%/hop loss" true
    (Receiver.complete session.Session.receiver);
  Alcotest.(check bool)
    "retransmissions happened" true
    (Flow_metrics.retransmissions session.Session.metrics > 0)

(* Steady-state throughput of an unlimited flow, excluding slow-start
   warmup (this is what the paper's Figs 2 and 12 measure). *)
let steady_tput ?(hops = 5) ?(plr = 0.0) ~cc () =
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops ~bw_mbps:20.0 ~delay:0.005 ~plr in
  let n = Array.length chain.Topology.nodes - 1 in
  let session =
    Session.connect engine ~src_node:chain.Topology.nodes.(0)
      ~dst_node:chain.Topology.nodes.(n) ~flow:1 ~cc ~source:Sender.Unlimited
      ()
  in
  Session.start session;
  Engine.run ~until:60.0 engine;
  Flow_metrics.goodput session.Session.metrics ~lo:10.0 ~hi:60.0

let test_loss_hurts_loss_based_cc () =
  let clean = steady_tput ~cc:Cc.Cubic ()
  and lossy = steady_tput ~plr:0.005 ~cc:Cc.Cubic () in
  Alcotest.(check bool)
    (Printf.sprintf "cubic: %.0f clean vs %.0f lossy B/s" clean lossy)
    true
    (lossy < 0.7 *. clean)

let test_bbr_beats_cubic_under_loss () =
  let bbr = steady_tput ~plr:0.005 ~cc:Cc.Bbr ()
  and cubic = steady_tput ~plr:0.005 ~cc:Cc.Cubic () in
  Alcotest.(check bool)
    (Printf.sprintf "bbr %.0f > cubic %.0f under loss" bbr cubic)
    true (bbr > cubic)

let test_bulk_flow_throughput () =
  (* An unlimited NewReno flow on a clean link should keep the pipe busy:
     >= 70% utilization over 30 s. *)
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops:2 ~bw_mbps:10.0 ~delay:0.01 ~plr:0.0 in
  let session =
    Session.connect engine ~src_node:chain.Topology.nodes.(0)
      ~dst_node:chain.Topology.nodes.(2) ~flow:1 ~cc:Cc.Newreno
      ~source:Sender.Unlimited ()
  in
  Session.start session;
  Engine.run ~until:30.0 engine;
  let delivered = Flow_metrics.app_bytes session.Session.metrics in
  let util = float_of_int delivered /. (mbps 10.0 *. 30.0) in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f" util)
    true (util > 0.7)

(* Reliability property: whatever the loss rate and bandwidth, a Fixed
   transfer that completes delivered every byte exactly once, in order. *)
let reliability_prop =
  let open QCheck2 in
  Test.make ~name:"TCP delivers the exact byte stream under random loss"
    ~count:15
    Gen.(
      triple (int_range 1 4) (float_range 0.0 0.03)
        (oneofl [ Cc.Newreno; Cc.Cubic; Cc.Bbr; Cc.Westwood ]))
    (fun (hops, plr, cc) ->
      let engine, rng = setup () in
      let chain = build_chain engine rng ~hops ~bw_mbps:20.0 ~delay:0.003 ~plr in
      let n = Array.length chain.Topology.nodes - 1 in
      let bytes = 150_000 in
      let session =
        Session.connect engine ~src_node:chain.Topology.nodes.(0)
          ~dst_node:chain.Topology.nodes.(n) ~flow:1 ~cc
          ~source:(Sender.Fixed bytes) ()
      in
      Session.start session;
      Engine.run ~until:300.0 engine;
      Receiver.complete session.Session.receiver
      && Receiver.delivered_bytes session.Session.receiver = bytes
      && Flow_metrics.app_bytes session.Session.metrics = bytes)

let test_dynamic_source_sender () =
  (* A sender whose data becomes available over time (the proxy/gateway
     source) keeps transmitting as the prefix grows. *)
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops:2 ~bw_mbps:20.0 ~delay:0.005 ~plr:0.0 in
  let available = ref 0 in
  let src = chain.Topology.nodes.(0) and dst = chain.Topology.nodes.(2) in
  let metrics = Flow_metrics.create ~flow:1 in
  let sender =
    Sender.create engine ~node:src ~dst:(Node.id dst) ~flow:1 ~cc:Cc.Newreno
      ~source:(Sender.Dynamic (fun () -> !available))
      ~metrics ()
  in
  let receiver =
    Receiver.create engine ~node:dst ~src:(Node.id src) ~flow:1 ~metrics ()
  in
  Node.set_handler src (fun pkt ->
      if Wire.is_ack_seg pkt then Sender.handle_ack sender pkt
      else Leotp_net.Packet_pool.release pkt);
  Node.set_handler dst (fun pkt ->
      if Wire.is_data_seg pkt then Receiver.handle_data receiver pkt
      else Leotp_net.Packet_pool.release pkt);
  Sender.start sender;
  (* Grow the prefix in three installments. *)
  List.iter
    (fun (t, n) ->
      ignore
        (Engine.schedule engine ~after:t (fun () ->
             available := n;
             Sender.notify_data_available sender)))
    [ (0.1, 100_000); (1.0, 250_000); (2.0, 400_000) ];
  Engine.run ~until:20.0 engine;
  Alcotest.(check int) "all delivered" 400_000 (Receiver.delivered_bytes receiver)

(* The receiver advertises at most 3 SACK ranges above the cumulative
   ack, mirroring real TCP option-space limits: with more out-of-order
   ranges than that, each ACK carries the lowest three, in order. *)
let test_receiver_sack_limit () =
  let engine, rng = setup () in
  let node = Node.create ~name:"rx" and peer = Node.create ~name:"tx" in
  let d =
    Topology.connect engine ~rng node peer
      (Topology.hop ~bandwidth:(Bandwidth.Constant 1e9) ~delay:1e-6 ())
  in
  Node.add_route node ~dst:(Node.id peer) d.Topology.fwd;
  let acks = ref [] in
  Node.set_handler peer (fun pkt ->
      acks := (Wire.cum_ack pkt, Wire.sack_list pkt) :: !acks;
      Leotp_net.Packet_pool.release pkt);
  let rx = Receiver.create engine ~node ~src:(Node.id peer) ~flow:1 () in
  let last_ack_after seqs =
    List.iter
      (fun seq ->
        Receiver.handle_data rx
          (Wire.data_packet ~src:(Node.id peer) ~dst:(Node.id node) ~flow:1 ~seq
             ~len:1000 ~sent_at:0.0 ~first_sent:0.0 ~retx:false ~fin:false))
      seqs;
    Engine.run engine;
    List.hd !acks
  in
  let ranges = List.map (fun k -> (k * 1000, (k + 1) * 1000)) in
  Alcotest.(check (pair int (list (pair int int))))
    "five ranges above the prefix"
    (1000, ranges [ 2; 4; 6 ])
    (last_ack_after [ 0; 2000; 4000; 6000; 8000; 10_000 ]);
  Alcotest.(check (pair int (list (pair int int))))
    "hole filled: the window moves up"
    (3000, ranges [ 4; 6; 8 ])
    (last_ack_after [ 1000 ])

(* ------------------------------------------------------------------ *)
(* Split TCP *)

let run_split ?(hops = 4) ?(plr = 0.0) ?(bytes = 400_000) ?(cc = Cc.Cubic)
    ?(until = 120.0) () =
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops ~bw_mbps:20.0 ~delay:0.005 ~plr in
  let split =
    Split.connect engine ~nodes:chain.Topology.nodes ~flow:1 ~cc
      ~source:(Sender.Fixed bytes) ()
  in
  Split.start split;
  Engine.run ~until engine;
  (split, engine)

let test_split_completes () =
  let split, _ = run_split () in
  Alcotest.(check bool) "complete" true (Split.complete split);
  Alcotest.(check int) "bytes" 400_000 (Flow_metrics.app_bytes (Split.metrics split))

let test_split_reliable_under_loss () =
  let split, _ = run_split ~plr:0.01 ~until:300.0 () in
  Alcotest.(check bool) "complete with loss" true (Split.complete split)

let test_split_beats_e2e_cubic_under_loss () =
  (* The Fig 4 effect: splitting a lossy 10-hop path rescues Cubic. *)
  let bytes = 1_500_000 in
  let split, _ = run_split ~hops:8 ~plr:0.005 ~bytes ~until:400.0 () in
  let e2e, _ =
    run_transfer ~hops:8 ~plr:0.005 ~bytes ~cc:Cc.Cubic ~until:400.0 ()
  in
  let time m =
    match Flow_metrics.completion_time m with Some t -> t | None -> 400.0
  in
  let t_split = time (Split.metrics split) in
  let t_e2e = time e2e.Session.metrics in
  Alcotest.(check bool)
    (Printf.sprintf "split %.1fs faster than e2e %.1fs" t_split t_e2e)
    true (t_split < t_e2e)

let test_split_owd_tracks_origin () =
  (* OWD through proxies must be at least the full-path propagation. *)
  let split, _ = run_split ~hops:4 () in
  let owd = Flow_metrics.owd (Split.metrics split) in
  Alcotest.(check bool)
    "origin-stamped OWD >= 4 hops propagation" true
    (Leotp_util.Stats.min owd >= 0.02)

(* A proxy stamps each downstream segment with the origin time of the
   upstream segment holding its first byte.  Here the upstream sends
   [0, 1000) at 0.5 s, a retransmitted [1000, 2000) at 0.7 s and
   [2000, 3000) at 0.9 s; the downstream ack at 1500 lands inside the
   retransmitted segment and the third segment's arrival prunes the
   proxy's origin times below it, yet the RTO's retransmission from 1500
   still carries that segment's time and retx flag. *)
let test_split_origin_after_prune () =
  let engine, rng = setup () in
  let chain = build_chain engine rng ~hops:2 ~bw_mbps:20.0 ~delay:0.005 ~plr:0.0 in
  let nodes = chain.Topology.nodes in
  let split = Split.connect engine ~nodes ~flow:1 ~cc:Cc.Newreno () in
  (* The test plays the upstream: the origin sender's own segments die
     at its node, and the proxy's acks die on arrival there. *)
  Node.clear_routes nodes.(0);
  Node.set_handler nodes.(0) Leotp_net.Packet_pool.release;
  let sent = ref [] in
  Node.set_handler nodes.(2) (fun pkt ->
      if Wire.is_data_seg pkt then
        sent := (Wire.seq pkt, (Wire.first_sent pkt, Wire.retx pkt)) :: !sent;
      Leotp_net.Packet_pool.release pkt);
  let at time f = ignore (Engine.schedule engine ~after:time f) in
  let upstream time ~seq ~first_sent ~retx =
    at time (fun () ->
        Node.receive nodes.(1)
          (Wire.data_packet ~src:(Node.id nodes.(0)) ~dst:(Node.id nodes.(2))
             ~flow:1 ~seq ~len:1000 ~sent_at:time ~first_sent ~retx ~fin:false))
  in
  upstream 0.1 ~seq:0 ~first_sent:0.5 ~retx:false;
  upstream 0.2 ~seq:1000 ~first_sent:0.7 ~retx:true;
  at 0.3 (fun () ->
      Node.receive nodes.(1)
        (Wire.ack_packet ~src:(Node.id nodes.(2)) ~dst:(Node.id nodes.(1))
           ~flow:1 ~cum_ack:1500));
  upstream 0.4 ~seq:2000 ~first_sent:0.9 ~retx:false;
  Split.start split;
  Engine.run ~until:3.0 engine;
  let sent = List.rev !sent in
  let check = Alcotest.(check (pair (float 0.0) bool)) in
  check "first segment" (0.5, false) (List.assoc 0 sent);
  check "retransmitted upstream" (0.7, true) (List.assoc 1000 sent);
  check "third segment" (0.9, false) (List.assoc 2000 sent);
  check "RTO resend inside the retransmitted segment" (0.7, true)
    (List.assoc 1500 sent)

(* ------------------------------------------------------------------ *)
(* Sender bookkeeping regressions (each failed before the fix). *)

(* A bare sender with no route: data packets are dropped at the node and
   the test injects acks by hand, so every assertion is deterministic. *)
let drive_sender ?(cc = Cc.Newreno) ?(bytes = 3_000) () =
  let engine, _ = setup () in
  let node = Node.create ~name:"tx" in
  let sender =
    Sender.create engine ~node ~dst:99 ~flow:1 ~cc ~mss:1000
      ~source:(Sender.Fixed bytes) ()
  in
  Sender.start sender;
  (engine, node, sender)

let ack_pkt node ~cum ?(sacks = []) ?ts_echo () =
  let p = Wire.ack_packet ~src:99 ~dst:(Node.id node) ~flow:1 ~cum_ack:cum in
  List.iter (fun (lo, hi) -> Wire.add_sack p ~lo ~hi) sacks;
  (match ts_echo with Some t -> Wire.set_ts_echo p t | None -> ());
  p

let test_partial_ack_straddling_segment () =
  (* Three 1000-byte segments go out inside the initial window.  An ack
     at 1500 lands mid-segment: the straddled segment's tail must stay
     in flight.  Pre-fix, IntMap.split dropped the straddler entirely,
     under-counting inflight by 500 bytes. *)
  let engine, node, sender = drive_sender () in
  Engine.run ~until:0.05 engine;
  Alcotest.(check int) "three segments out" 3000 (Sender.inflight sender);
  Sender.handle_ack sender (ack_pkt node ~cum:1500 ());
  Alcotest.(check int) "snd_una advances" 1500 (Sender.snd_una sender);
  Alcotest.(check int) "tail still inflight" 1500 (Sender.inflight sender)

let test_rtt_sample_at_time_zero () =
  (* The first flight is sent at t = 0.0.  An ack echoing that timestamp
     must still yield an RTT sample; pre-fix the [ts_echo > 0.0] guard
     silently discarded it. *)
  let engine, node, sender = drive_sender () in
  Engine.run ~until:0.05 engine;
  Sender.handle_ack sender (ack_pkt node ~cum:1000 ~ts_echo:0.0 ());
  match Sender.srtt sender with
  | None -> Alcotest.fail "ack echoing t=0.0 produced no RTT sample"
  | Some srtt -> Alcotest.(check (float 1e-9)) "srtt = 50ms" 0.05 srtt

let test_stop_clears_timers () =
  (* PCC paces from the first packet, so the pump timer is armed as soon
     as the sender starts; [stop] must disarm it. *)
  let _engine, _node, sender = drive_sender ~cc:Cc.Pcc ~bytes:50_000 () in
  Alcotest.(check bool) "pacing armed a timer" true (Sender.timer_pending sender);
  Sender.stop sender;
  Alcotest.(check bool) "no engine event pending" false
    (Sender.timer_pending sender)

let test_finished_transfer_quiescent () =
  let session, _ = run_transfer ~cc:Cc.Bbr () in
  Alcotest.(check bool) "finished" true (Sender.finished session.Session.sender);
  Alcotest.(check bool) "no timer armed after completion" false
    (Sender.timer_pending session.Session.sender)

(* Minor words [f] allocates, net of the measurement itself. *)
let minor_words f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  words f -. words ignore

(* A warm NewReno sender: an unlimited source, mss 1000, grown in slow
   start by 30 acks 10 ms apart of up to 10 segments each, so its
   segment store and the packet pool have grown and 310 segments are in
   flight.  Its data dies at the node, which has no route. *)
let warm_sender () =
  let engine, _ = setup () in
  let node = Node.create ~name:"tx" in
  let sender =
    Sender.create engine ~node ~dst:99 ~flow:1 ~cc:Cc.Newreno ~mss:1000 ()
  in
  Sender.start sender;
  for k = 1 to 30 do
    Engine.run ~until:(0.01 *. float_of_int k) engine;
    let cum = min (Sender.snd_nxt sender) (Sender.snd_una sender + 10_000) in
    Sender.handle_ack sender (ack_pkt node ~cum ())
  done;
  (engine, node, sender)

(* The ack path walks the segments by rank and threads its byte counts
   through the walks, and the pump reads the controller's flat window
   as fields, so a warm ack allocates only what the controller is handed
   ([Cc.ack_info] and its bandwidth sample) and the RTO's re-arm.  10 ms after the last growth ack, a
   duplicate ack SACKs three segments, 40, 43 and 46 above [snd_una],
   and FACK declares the 42 unSACKed ones below 44 lost; 10 ms later, a
   cumulative ack acknowledges one segment, and FACK walks the 43 below
   the highest SACK again.  Neither echoes a timestamp. *)
let test_warm_ack_allocation () =
  let engine, node, sender = warm_sender () in
  Alcotest.(check int) "in flight" 310_000 (Sender.inflight sender);
  let una = Sender.snd_una sender in
  let seg k = (una + (1000 * k), una + (1000 * (k + 1))) in
  let at_most name bound w =
    Alcotest.(check bool) (Printf.sprintf "%s: %.0f words" name w) true
      (w <= bound)
  in
  let dup = ack_pkt node ~cum:una ~sacks:[ seg 40; seg 43; seg 46 ] () in
  Engine.run ~until:0.31 engine;
  at_most "duplicate ack" 10.0
    (minor_words (fun () -> Sender.handle_ack sender dup));
  Alcotest.(check int) "after the losses" 265_000 (Sender.inflight sender);
  let cum = ack_pkt node ~cum:(una + 1000) () in
  Engine.run ~until:0.32 engine;
  at_most "cumulative ack" 12.0
    (minor_words (fun () -> Sender.handle_ack sender cum));
  Alcotest.(check int) "snd_una" (una + 1000) (Sender.snd_una sender)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_tcp"
    [
      ( "cc",
        [
          Alcotest.test_case "registry" `Quick test_cc_registry;
          Alcotest.test_case "newreno ss/ca" `Quick test_newreno_slow_start_and_ca;
          Alcotest.test_case "newreno rto" `Quick test_newreno_rto;
          Alcotest.test_case "hybla rho" `Quick test_hybla_rho_scaling;
          Alcotest.test_case "vegas rtt" `Quick test_vegas_backs_off_on_rtt_rise;
          Alcotest.test_case "westwood bwe" `Quick test_westwood_loss_uses_bwe;
          Alcotest.test_case "bbr pacing" `Quick test_bbr_pacing_converges;
          Alcotest.test_case "bbr loss-blind" `Quick test_bbr_ignores_loss;
          Alcotest.test_case "pcc rate" `Quick test_pcc_rate_positive;
        ] );
      ( "engine",
        [
          Alcotest.test_case "transfer completes" `Quick test_transfer_completes;
          Alcotest.test_case "timing sane" `Quick test_transfer_timing_sane;
          Alcotest.test_case "owd floor" `Quick test_owd_includes_propagation;
          Alcotest.test_case "reliable under loss" `Quick test_reliability_under_loss;
          Alcotest.test_case "loss hurts cubic" `Slow test_loss_hurts_loss_based_cc;
          Alcotest.test_case "bbr beats cubic lossy" `Slow
            test_bbr_beats_cubic_under_loss;
          Alcotest.test_case "bulk utilization" `Quick test_bulk_flow_throughput;
          qc reliability_prop;
        ] );
      ( "sender-fixes",
        [
          Alcotest.test_case "partial ack straddling segment" `Quick
            test_partial_ack_straddling_segment;
          Alcotest.test_case "rtt sample at t=0" `Quick
            test_rtt_sample_at_time_zero;
          Alcotest.test_case "stop clears timers" `Quick
            test_stop_clears_timers;
          Alcotest.test_case "warm ack allocation" `Quick
            test_warm_ack_allocation;
          Alcotest.test_case "finished transfer quiescent" `Quick
            test_finished_transfer_quiescent;
        ] );
      ( "sources",
        [
          Alcotest.test_case "dynamic source" `Quick test_dynamic_source_sender;
          Alcotest.test_case "sack limit" `Quick test_receiver_sack_limit;
        ] );
      ( "split",
        [
          Alcotest.test_case "completes" `Quick test_split_completes;
          Alcotest.test_case "reliable under loss" `Quick
            test_split_reliable_under_loss;
          Alcotest.test_case "beats e2e under loss" `Slow
            test_split_beats_e2e_cubic_under_loss;
          Alcotest.test_case "origin owd" `Quick test_split_owd_tracks_origin;
          Alcotest.test_case "origin time after prune" `Quick
            test_split_origin_after_prune;
        ] );
    ]
