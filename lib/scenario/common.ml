module Engine = Leotp_sim.Engine
module Fault = Leotp_sim.Fault
module Bandwidth = Leotp_net.Bandwidth
module Topology = Leotp_net.Topology
module Node = Leotp_net.Node
module Link = Leotp_net.Link
module Trace = Leotp_net.Trace
module Flow_metrics = Leotp_net.Flow_metrics
module Stats = Leotp_util.Stats

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

type protocol =
  | Tcp of Leotp_tcp.Cc.algo
  | Split_tcp of Leotp_tcp.Cc.algo
  | Leotp of Leotp.Config.t
  | Leotp_partial of Leotp.Config.t * float

let protocol_name = function
  | Tcp cc -> Leotp_tcp.Cc.algo_name cc
  | Split_tcp cc -> "split-" ^ Leotp_tcp.Cc.algo_name cc
  | Leotp cfg -> (
    match cfg.Leotp.Config.ablation with
    | Leotp.Config.Full -> "leotp"
    | Leotp.Config.No_cache -> "leotp-B(no-cache)"
    | Leotp.Config.E2e_cc -> "leotp-C(e2e-cc)"
    | Leotp.Config.No_midnodes -> "leotp-D(e2e)")
  | Leotp_partial (_, cov) -> Printf.sprintf "leotp-%.0f%%cov" (cov *. 100.0)

let protocol_of_name name =
  let ablated a =
    Some (Leotp (Leotp.Config.with_ablation a Leotp.Config.default))
  in
  let cc wrap s = Option.map wrap (Leotp_tcp.Cc.algo_of_name s) in
  match String.lowercase_ascii name with
  | "leotp" -> Some (Leotp Leotp.Config.default)
  | "leotp-b" | "leotp-no-cache" | "leotp-b(no-cache)" ->
    ablated Leotp.Config.No_cache
  | "leotp-c" | "leotp-e2e-cc" | "leotp-c(e2e-cc)" -> ablated Leotp.Config.E2e_cc
  | "leotp-d" | "leotp-e2e" | "leotp-d(e2e)" -> ablated Leotp.Config.No_midnodes
  | s -> (
    match String.split_on_char '-' s with
    | [ "split"; algo ] -> cc (fun a -> Split_tcp a) algo
    | _ -> cc (fun a -> Tcp a) s)

type link_params = { bandwidth_mbps : float; delay : float; plr : float }

let link ?(plr = 0.0) ~bw ~delay () = { bandwidth_mbps = bw; delay; plr }

type summary = {
  protocol : string;
  goodput_mbps : float;
  owd : Stats.t;
  retx_owd : Stats.t;
  queuing_delay : Stats.t;
  retransmissions : int;
  wire_bytes : int;
  app_bytes : int;
  completion_time : float option;
  delivery : Leotp_util.Timeseries.t;
  duration : float;
  congestion_drops : int;
}

let uniform_hops ~n p = List.init n (fun _ -> p)

let to_spec p =
  Topology.hop ~plr:p.plr
    ~bandwidth:(Bandwidth.Constant (mbps p.bandwidth_mbps))
    ~delay:p.delay ()

let summarize ?(congestion_drops = 0) ~protocol ~metrics ~floor ~warmup
    ~duration () =
  let owd = Flow_metrics.owd metrics in
  let queuing = Stats.excess owd ~floor in
  let goodput_window_bytes =
    Leotp_util.Timeseries.window_sum (Flow_metrics.delivery metrics) ~lo:warmup
      ~hi:duration
  in
  let goodput_mbps =
    match Flow_metrics.completion_time metrics with
    | Some ct when ct > 0.0 ->
      Leotp_util.Units.bytes_per_sec_to_mbps
        (float_of_int (Flow_metrics.app_bytes metrics) /. ct)
    | _ ->
      if duration > warmup then
        Leotp_util.Units.bytes_per_sec_to_mbps
          (goodput_window_bytes /. (duration -. warmup))
      else 0.0
  in
  {
    protocol;
    goodput_mbps;
    owd;
    retx_owd = Flow_metrics.retx_owd metrics;
    queuing_delay = queuing;
    retransmissions = Flow_metrics.retransmissions metrics;
    wire_bytes = Flow_metrics.wire_bytes_sent metrics;
    app_bytes = Flow_metrics.app_bytes metrics;
    completion_time = Flow_metrics.completion_time metrics;
    delivery = Flow_metrics.delivery metrics;
    duration;
    congestion_drops;
  }

let chain_links (chain : Topology.chain) =
  Array.fold_right
    (fun d acc -> d.Topology.fwd :: d.Topology.rev :: acc)
    chain.Topology.hops []

(* Resolve a fault event's abstract target onto this scenario's links /
   midnodes and apply it.  Targets index modulo the available pool so a
   generic random schedule fits any topology; link actions aimed at a
   midnode target (or vice versa) are ignored. *)
let apply_fault ~hops ~midnodes (ev : Fault.event) =
  let hop_links i =
    let n = Array.length hops in
    if n = 0 then []
    else
      let d = hops.(((i mod n) + n) mod n) in
      [ d.Topology.fwd; d.Topology.rev ]
  in
  let mid k =
    match !midnodes with
    | [] -> None
    | l -> Some (List.nth l (((k mod List.length l) + List.length l) mod List.length l))
  in
  (match ev.Fault.action with
  | Fault.Link_down (Fault.Hop i) ->
    List.iter (fun l -> Link.set_up l false) (hop_links i)
  | Fault.Link_up (Fault.Hop i) ->
    List.iter (fun l -> Link.set_up l true) (hop_links i)
  | Fault.Set_plr (Fault.Hop i, p) ->
    List.iter (fun l -> Link.set_plr l p) (hop_links i)
  | Fault.Set_bw_mbps (Fault.Hop i, b) ->
    List.iter
      (fun l -> Link.set_bandwidth l (Bandwidth.Constant (mbps b)))
      (hop_links i)
  | Fault.Set_dup (Fault.Hop i, p) ->
    List.iter (fun l -> Link.set_dup_prob l p) (hop_links i)
  | Fault.Set_reorder (Fault.Hop i, p, j) ->
    List.iter (fun l -> Link.set_reorder l ~prob:p ~jitter:j) (hop_links i)
  | Fault.Crash (Fault.Mid k) -> Option.iter Leotp.Midnode.crash (mid k)
  | Fault.Restart (Fault.Mid k) -> Option.iter Leotp.Midnode.restart (mid k)
  | Fault.Link_down (Fault.Mid _)
  | Fault.Link_up (Fault.Mid _)
  | Fault.Set_plr (Fault.Mid _, _)
  | Fault.Set_bw_mbps (Fault.Mid _, _)
  | Fault.Set_dup (Fault.Mid _, _)
  | Fault.Set_reorder (Fault.Mid _, _, _)
  | Fault.Crash (Fault.Hop _)
  | Fault.Restart (Fault.Hop _) -> ());
  if Trace.on () then
    Trace.emit (Trace.Fault { what = Fault.event_to_string ev })

let observed ~engine ~links ?trace ?on_reports ?(sweep = fun ~now:_ -> ())
    ~label f =
  let self = Atomic.get Invariants.self_check in
  let checker =
    if self || Option.is_some on_reports then Some (Invariants.create ())
    else None
  in
  let recorder =
    match trace with
    | Some _ as t -> t
    | None ->
      (* Fold-only recorder: a one-slot undigested ring with no sink
         hands each event's fields straight to the checker and builds
         no record, so checking keeps memory flat and allocates nothing
         per event. *)
      if Option.is_some checker then
        Some (Trace.create ~capacity:1 ~digesting:false ())
      else None
  in
  match recorder with
  | None -> f ()
  | Some r ->
    Option.iter (fun c -> Trace.add_fold r (Invariants.fold c)) checker;
    Trace.with_recorder r
      ~clock:(fun () -> Engine.now engine)
      (fun () ->
        let result = f () in
        let now = Engine.now engine in
        sweep ~now;
        List.iter Link.trace_final links;
        (match checker with
        | None -> ()
        | Some c ->
          let reports = Invariants.finalize ~now c in
          (match on_reports with Some k -> k reports | None -> ());
          if self && not (Invariants.all_ok reports) then
            raise
              (Invariants.Violation
                 (Printf.sprintf "%s: invariant violation\n%s" label
                    (Invariants.to_string reports))));
        result)

(* Packet and node ids restart from zero for every run (the trace
   digests depend on them), on a new engine and root rng. *)
let fresh_engine ~seed =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  (Engine.create (), Leotp_util.Rng.create ~seed)

type tcp_direction = Head_to_tail | Tail_to_head

let run_flow ?bytes ?(faults = []) ?trace ?on_reports ?links ?label ~engine
    ~rng ~chain ~tcp ~floor ~warmup ~duration protocol =
  let links = Option.value links ~default:(chain_links chain) in
  let midnodes = ref [] in
  if faults <> [] then
    Fault.install engine
      ~apply:(apply_fault ~hops:chain.Topology.hops ~midnodes)
      faults;
  observed ~engine ~links ?trace ?on_reports
    ~sweep:(fun ~now ->
      List.iter (fun m -> Leotp.Midnode.sweep_pit m ~now) !midnodes)
    ~label:(Option.value label ~default:(protocol_name protocol))
  @@ fun () ->
  let source =
    match bytes with
    | Some b -> Leotp_tcp.Sender.Fixed b
    | None -> Leotp_tcp.Sender.Unlimited
  in
  (* TCP's data sender first, its receiver last. *)
  let tcp_nodes =
    let nodes = chain.Topology.nodes in
    let n = Array.length nodes in
    match tcp with
    | Head_to_tail -> nodes
    | Tail_to_head -> Array.init n (fun i -> nodes.(n - 1 - i))
  in
  let leotp ?coverage ?coverage_rng cfg =
    let session =
      Leotp.Session.over_chain engine ~config:cfg ~chain ~flow:1
        ?total_bytes:bytes ?coverage ?coverage_rng ()
    in
    midnodes := session.Leotp.Session.midnodes;
    Leotp.Session.start session;
    session.Leotp.Session.metrics
  in
  let metrics =
    match protocol with
    | Tcp cc ->
      let session =
        Leotp_tcp.Session.connect engine ~src_node:tcp_nodes.(0)
          ~dst_node:tcp_nodes.(Array.length tcp_nodes - 1)
          ~flow:1 ~cc ~source ()
      in
      Leotp_tcp.Session.start session;
      session.Leotp_tcp.Session.metrics
    | Split_tcp cc ->
      let split =
        Leotp_tcp.Split.connect engine ~nodes:tcp_nodes ~flow:1 ~cc ~source ()
      in
      Leotp_tcp.Split.start split;
      Leotp_tcp.Split.metrics split
    | Leotp cfg -> leotp cfg
    | Leotp_partial (cfg, coverage) ->
      leotp cfg ~coverage
        ~coverage_rng:(Leotp_util.Rng.substream rng "coverage")
  in
  Engine.run ~until:duration engine;
  Runner.note_sim_seconds (Engine.now engine);
  let congestion_drops =
    List.fold_left (fun acc l -> acc + (Link.stats l).Link.drops_tail) 0 links
  in
  summarize ~congestion_drops ~protocol:(protocol_name protocol) ~metrics
    ~floor ~warmup ~duration ()

let run_chain ?(seed = 42) ?bytes ?(duration = 60.0) ?(warmup = 10.0)
    ?(bandwidth_schedule = []) ?faults ?trace ?on_reports ~hops protocol =
  let engine, rng = fresh_engine ~seed in
  let chain = Topology.chain engine ~rng (Array.of_list (List.map to_spec hops)) in
  List.iter
    (fun (idx, bw) ->
      let d = chain.Topology.hops.(idx) in
      Link.set_bandwidth d.Topology.fwd bw;
      Link.set_bandwidth d.Topology.rev bw)
    bandwidth_schedule;
  run_flow ?bytes ?faults ?trace ?on_reports ~engine ~rng ~chain
    ~tcp:Head_to_tail
    ~floor:(List.fold_left (fun acc h -> acc +. h.delay) 0.0 hops)
    ~warmup ~duration protocol

let runs_on_dumbbell = function
  | Tcp _ | Leotp _ -> true
  | Split_tcp _ | Leotp_partial _ -> false

let run_flows_dumbbell ?(seed = 42) ?bytes ?(duration = 600.0) ?(faults = [])
    ?trace ?on_reports ~access_delays ~bottleneck ~access ~starts protocol =
  let engine, rng = fresh_engine ~seed in
  let n = List.length access_delays in
  assert (List.length starts = n);
  let access_specs =
    Array.of_list
      (List.map (fun d -> to_spec { access with delay = d }) access_delays)
  in
  let db =
    Topology.dumbbell engine ~rng ~access:access_specs
      ~bottleneck:(to_spec bottleneck)
  in
  let floor i = (2.0 *. List.nth access_delays i) +. bottleneck.delay in
  let all_midnodes = ref [] in
  let links =
    db.Topology.bottleneck.Topology.fwd :: db.Topology.bottleneck.Topology.rev
    :: List.concat_map
         (fun (d : Topology.duplex) -> [ d.Topology.fwd; d.Topology.rev ])
         (Array.to_list db.Topology.sender_links
         @ Array.to_list db.Topology.receiver_links)
  in
  (* Fault targets resolve modulo this pool: bottleneck first so Hop 0
     always hits the shared link, then the per-flow access duplexes. *)
  let fault_hops =
    Array.of_list
      (db.Topology.bottleneck
      :: Array.to_list db.Topology.sender_links
      @ Array.to_list db.Topology.receiver_links)
  in
  if faults <> [] then
    Fault.install engine
      ~apply:(apply_fault ~hops:fault_hops ~midnodes:all_midnodes)
      faults;
  let source =
    match bytes with
    | Some b -> Leotp_tcp.Sender.Fixed b
    | None -> Leotp_tcp.Sender.Unlimited
  in
  observed ~engine ~links ?trace ?on_reports
    ~sweep:(fun ~now ->
      List.iter (fun m -> Leotp.Midnode.sweep_pit m ~now) !all_midnodes)
    ~label:("dumbbell:" ^ protocol_name protocol)
  @@ fun () ->
  let all_metrics =
    match protocol with
    | Tcp cc ->
      List.init n (fun i ->
          let session =
            Leotp_tcp.Session.connect engine
              ~src_node:db.Topology.senders.(i)
              ~dst_node:db.Topology.receivers.(i)
              ~flow:(i + 1) ~cc ~source ()
          in
          ignore
            (Engine.schedule_at engine ~time:(List.nth starts i) (fun () ->
                 Leotp_tcp.Session.start session));
          session.Leotp_tcp.Session.metrics)
    | Leotp cfg ->
      (* Shared Midnodes on the two routers. *)
      let midnodes =
        match cfg.Leotp.Config.ablation with
        | Leotp.Config.No_midnodes -> []
        | _ ->
          [
            Leotp.Midnode.create engine ~config:cfg ~node:db.Topology.left ();
            Leotp.Midnode.create engine ~config:cfg ~node:db.Topology.right ();
          ]
      in
      all_midnodes := midnodes;
      List.init n (fun i ->
          (* Data flows sender -> receiver: the sender node is the
             Producer, the receiver node the Consumer. *)
          let session =
            Leotp.Session.attach engine ~config:cfg
              ~consumer_node:db.Topology.receivers.(i)
              ~producer_node:db.Topology.senders.(i)
              ~midnodes ~flow:(i + 1) ?total_bytes:bytes ()
          in
          ignore
            (Engine.schedule_at engine ~time:(List.nth starts i) (fun () ->
                 Leotp.Session.start session));
          session.Leotp.Session.metrics)
    | Split_tcp _ | Leotp_partial _ ->
      invalid_arg "run_flows_dumbbell: unsupported protocol"
  in
  Engine.run ~until:duration engine;
  Runner.note_sim_seconds (Engine.now engine);
  let summaries =
    List.mapi
      (fun i m ->
        summarize
          ~protocol:(protocol_name protocol)
          ~metrics:m ~floor:(floor i)
          ~warmup:(List.nth starts i +. 20.0)
          ~duration ())
      all_metrics
  in
  let series =
    List.map
      (fun m ->
        List.map
          (fun (t, bps) -> (t, Leotp_util.Units.bytes_per_sec_to_mbps bps))
          (Leotp_util.Timeseries.rate_series (Flow_metrics.delivery m)
             ~width:5.0 ~t_end:duration))
      all_metrics
  in
  (summaries, series)

let run_faulted ?bytes ?duration ?warmup ?(faults = []) ?trace ~hops protocol =
  let reports = ref [] in
  let summary =
    run_chain ?bytes ?duration ?warmup ~faults ?trace
      ~on_reports:(fun r -> reports := r)
      ~hops protocol
  in
  (summary, !reports)
