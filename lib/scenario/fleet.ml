(* Constellation-scale flow-lifecycle manager (ROADMAP item 1).

   A [Workload] schedule is partitioned into a fixed number of shards by
   origin city (all flows sourced at one city share that city's uplink,
   and nothing else couples flows), so every shard is an independent
   simulation: its own engine, rng, trace recorder and invariant
   checker.  Shards run as [Runner] jobs; because the shard count is
   fixed and each job resets the domain-local id counters, the per-shard
   trace digests — and hence the combined digest — are bit-identical for
   [--jobs 1] and [--jobs N].

   Per origin city the shard lazily builds shared infrastructure: a
   ground gateway and an attachment-satellite node, both running LEOTP
   Midnodes, joined by the city's uplink (the shared bottleneck).  Per
   flow it leases a slot — producer node, consumer node, an access link
   into the gateway and a "space" link aggregating the rest of the
   Path_service route — from a per-city free list, reconfiguring the
   recycled links to the flow's current route instead of rebuilding the
   topology.  Completed flows retire after a grace period: sessions
   stop, midnode soft state for the flow is dropped (traced, so the
   invariant ledger stays balanced), per-flow routes are unwired and the
   slot returns to the pool.  A retired slot's packets all go back to
   the packet pool; [shard_stats.pool_live_delta] proves it. *)

module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Link = Leotp_net.Link
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Topology = Leotp_net.Topology
module Trace = Leotp_net.Trace
module Bandwidth = Leotp_net.Bandwidth
module Flow_metrics = Leotp_net.Flow_metrics
module Cities = Leotp_constellation.Cities
module Walker = Leotp_constellation.Walker
module Path_service = Leotp_constellation.Path_service
module Geo = Leotp_constellation.Geo
module Rng = Leotp_util.Rng

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

type spec = {
  workload : Workload.spec;
  shards : int;
  config : Leotp.Config.t;
  tcp_cc : Leotp_tcp.Cc.algo;
  route_epoch : float;
  uplink_mbps : float;
  access_mbps : float;
  space_mbps : float;
  gsl_plr : float;
  isl_plr : float;
  retire_grace : float;
  drain : float;
}

let default =
  {
    workload = Workload.default;
    shards = 8;
    config = Leotp.Config.default;
    tcp_cc = Leotp_tcp.Cc.Cubic;
    route_epoch = 30.0;
    uplink_mbps = 100.0;
    access_mbps = 400.0;
    space_mbps = 100.0;
    gsl_plr = 0.003;
    isl_plr = 0.001;
    retire_grace = 2.0;
    drain = 120.0;
  }

type shard_stats = {
  shard : int;
  flows_offered : int;
  flows_started : int;
  flows_completed : int;
  flows_skipped : int;
  bytes_delivered : int;
  packets : int;
  events : int;
  flow_sim_seconds : float;
  sim_end : float;
  route_queries : int;
  route_computes : int;
  pool_live_delta : int;
  pit_pending_end : int;
  peak_active : int;
  digest : string;
  reports : Invariants.report list;
}

type stats = {
  flows_offered : int;
  flows_started : int;
  flows_completed : int;
  flows_skipped : int;
  bytes_delivered : int;
  packets : int;
  events : int;
  flow_sim_seconds : float;
  sim_seconds : float;
  route_queries : int;
  route_computes : int;
  pool_live_delta : int;
  pit_pending_end : int;
  peak_active : int;
  digest : string;
  shards : shard_stats list;
  invariants_ok : bool;
}

(* ---------------------------------------------------------------- *)

type slot = {
  producer_node : Node.t;
  consumer_node : Node.t;
  access : Topology.duplex;  (* producer <-> gateway *)
  space : Topology.duplex;  (* sky <-> consumer *)
}

type site = {
  gateway : Node.t;
  sky : Node.t;
  uplink : Topology.duplex;  (* gateway <-> sky: the city's shared GSL *)
  gw_mid : Leotp.Midnode.t;
  sky_mid : Leotp.Midnode.t;
  mutable free_slots : slot list;
  mutable next_slot : int;
}

type active = {
  arrival : Workload.arrival;
  flow : int;
  slot : slot;
  site_origin : int;
  session :
    [ `Leotp of Leotp.Session.t | `Tcp of Leotp_tcp.Session.t ];
  started : float;
  mutable retired : bool;
}

type shard_state = {
  spec : spec;
  shard : int;
  engine : Engine.t;
  rng : Rng.t;
  memo : Path_service.Memo.t;
  sites : site option array;  (* indexed by origin city *)
  flows : (int, active) Hashtbl.t;
  mutable links : Link.t list;  (* reverse creation order *)
  mutable started : int;
  mutable completed : int;
  mutable skipped : int;
  mutable bytes_delivered : int;
  mutable flow_sim_seconds : float;
  mutable peak_active : int;
}

let access_delay = 0.0005

let metrics_of = function
  | `Leotp s -> s.Leotp.Session.metrics
  | `Tcp s -> s.Leotp_tcp.Session.metrics

(* Everything past the origin's own GSL, folded into one link: the
   remaining propagation delay and the compound loss of the ISL hops
   plus the consumer-side down-GSL. *)
let space_params spec route ~uplink_delay =
  let total = Path_service.total_delay route in
  let delay = Float.max 0.0005 (total -. uplink_delay) in
  let isls =
    List.length
      (List.filter (fun h -> h.Path_service.kind = Path_service.Isl) route)
  in
  let p_ok =
    ((1.0 -. spec.isl_plr) ** float_of_int isls) *. (1.0 -. spec.gsl_plr)
  in
  (delay, 1.0 -. p_ok)

let get_site st ~origin ~route =
  match st.sites.(origin) with
  | Some site -> site
  | None ->
    let uplink_delay =
      match route with
      | h :: _ -> Geo.propagation_delay h.Path_service.distance
      | [] -> 0.01
    in
    let name = Printf.sprintf "o%02d" origin in
    let gateway = Node.create ~name:(name ^ ".gw") in
    let sky = Node.create ~name:(name ^ ".sky") in
    let uplink =
      Topology.connect st.engine ~rng:st.rng gateway sky
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.uplink_mbps))
           ~delay:uplink_delay ~plr:st.spec.gsl_plr ())
    in
    st.links <- uplink.Topology.rev :: uplink.Topology.fwd :: st.links;
    let gw_mid =
      Leotp.Midnode.create st.engine ~config:st.spec.config ~node:gateway ()
    in
    let sky_mid =
      Leotp.Midnode.create st.engine ~config:st.spec.config ~node:sky ()
    in
    let site =
      { gateway; sky; uplink; gw_mid; sky_mid; free_slots = []; next_slot = 0 }
    in
    st.sites.(origin) <- Some site;
    site

let get_slot st ~origin site =
  match site.free_slots with
  | slot :: rest ->
    site.free_slots <- rest;
    slot
  | [] ->
    let name = Printf.sprintf "o%02d.s%03d" origin site.next_slot in
    site.next_slot <- site.next_slot + 1;
    let producer_node = Node.create ~name:(name ^ ".p") in
    let consumer_node = Node.create ~name:(name ^ ".c") in
    let access =
      Topology.connect st.engine ~rng:st.rng producer_node site.gateway
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.access_mbps))
           ~delay:access_delay ())
    in
    let space =
      Topology.connect st.engine ~rng:st.rng site.sky consumer_node
        (Topology.hop
           ~bandwidth:(Bandwidth.Constant (mbps st.spec.space_mbps))
           ~delay:0.01 ())
    in
    st.links <-
      space.Topology.rev :: space.Topology.fwd :: access.Topology.rev
      :: access.Topology.fwd :: st.links;
    { producer_node; consumer_node; access; space }

let retire st flow =
  match Hashtbl.find_opt st.flows flow with
  | None -> ()
  | Some fl when fl.retired -> ()
  | Some fl ->
    fl.retired <- true;
    (match fl.session with
    | `Leotp s ->
      Leotp.Session.stop s;
      Leotp.Producer.stop s.Leotp.Session.producer
    | `Tcp s -> Leotp_tcp.Session.stop s);
    (match st.sites.(fl.site_origin) with
    | None -> ()
    | Some site ->
      Leotp.Midnode.retire_flow site.gw_mid ~flow;
      Leotp.Midnode.retire_flow site.sky_mid ~flow;
      let cid = Node.id fl.slot.consumer_node
      and pid = Node.id fl.slot.producer_node in
      Node.remove_route site.gateway ~dst:cid;
      Node.remove_route site.gateway ~dst:pid;
      Node.remove_route site.sky ~dst:cid;
      Node.remove_route site.sky ~dst:pid;
      (* Queued stragglers die now; in-flight ones die (and return to
         the pool) when their epoch-stale delivery events fire. *)
      Link.flush fl.slot.access.Topology.fwd;
      Link.flush fl.slot.access.Topology.rev;
      Link.flush fl.slot.space.Topology.fwd;
      Link.flush fl.slot.space.Topology.rev;
      site.free_slots <- fl.slot :: site.free_slots);
    st.flow_sim_seconds <-
      st.flow_sim_seconds +. (Engine.now st.engine -. fl.started);
    st.bytes_delivered <-
      st.bytes_delivered + Flow_metrics.app_bytes (metrics_of fl.session);
    Hashtbl.remove st.flows flow

let admit st (a : Workload.arrival) =
  let now = Engine.now st.engine in
  match
    Path_service.Memo.route st.memo
      ~src:Cities.all.(a.origin)
      ~dst:Cities.all.(a.city)
      ~isls:true ~time:now
  with
  | None -> st.skipped <- st.skipped + 1
  | Some route ->
    let site = get_site st ~origin:a.origin ~route in
    let slot = get_slot st ~origin:a.origin site in
    let uplink_delay = Link.delay site.uplink.Topology.fwd in
    let delay, plr = space_params st.spec route ~uplink_delay in
    Link.set_delay slot.space.Topology.fwd delay;
    Link.set_delay slot.space.Topology.rev delay;
    Link.set_plr slot.space.Topology.fwd plr;
    Link.set_plr slot.space.Topology.rev plr;
    let cid = Node.id slot.consumer_node
    and pid = Node.id slot.producer_node in
    Node.add_route slot.producer_node ~dst:cid slot.access.Topology.fwd;
    Node.add_route slot.consumer_node ~dst:pid slot.space.Topology.rev;
    Node.add_route site.gateway ~dst:cid site.uplink.Topology.fwd;
    Node.add_route site.gateway ~dst:pid slot.access.Topology.rev;
    Node.add_route site.sky ~dst:cid slot.space.Topology.fwd;
    Node.add_route site.sky ~dst:pid site.uplink.Topology.rev;
    let flow = a.seq + 1 in
    let on_complete () =
      st.completed <- st.completed + 1;
      ignore
        (Engine.schedule st.engine ~after:st.spec.retire_grace (fun () ->
             retire st flow))
    in
    let session =
      match a.protocol with
      | Workload.Leotp ->
        let s =
          Leotp.Session.attach st.engine ~config:st.spec.config
            ~consumer_node:slot.consumer_node ~producer_node:slot.producer_node
            ~midnodes:[ site.gw_mid; site.sky_mid ] ~flow
            ~total_bytes:a.bytes ~on_complete ()
        in
        Leotp.Session.start s;
        `Leotp s
      | Workload.Tcp ->
        let s =
          Leotp_tcp.Session.connect st.engine ~src_node:slot.producer_node
            ~dst_node:slot.consumer_node ~flow ~cc:st.spec.tcp_cc
            ~source:(Leotp_tcp.Sender.Fixed a.bytes) ~on_complete ()
        in
        Leotp_tcp.Session.start s;
        `Tcp s
    in
    Hashtbl.replace st.flows flow
      {
        arrival = a;
        flow;
        slot;
        site_origin = a.origin;
        session;
        started = now;
        retired = false;
      };
    st.started <- st.started + 1;
    st.peak_active <- max st.peak_active (Hashtbl.length st.flows)

let active_flows st =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) st.flows [])

let run_shard spec ~shard ~arrivals () =
  Packet.reset_ids ();
  Node.reset_ids ();
  let pool_live0 = Pool.live_count () in
  let packets0 = Packet.created_on_domain () in
  let engine = Engine.create () in
  let rng =
    Rng.substream
      (Rng.create ~seed:spec.workload.Workload.seed)
      (Printf.sprintf "fleet-shard-%02d" shard)
  in
  let st =
    {
      spec;
      shard;
      engine;
      rng;
      memo =
        Path_service.Memo.create ~epoch:spec.route_epoch
          (Walker.create Walker.starlink);
      sites = Array.make Cities.count None;
      flows = Hashtbl.create 64;
      links = [];
      started = 0;
      completed = 0;
      skipped = 0;
      bytes_delivered = 0;
      flow_sim_seconds = 0.0;
      peak_active = 0;
    }
  in
  let recorder = Trace.create ~capacity:1 ~digesting:true () in
  let checker = Invariants.create () in
  Trace.add_sink recorder (Invariants.sink checker);
  let reports = ref [] in
  let pit_end = ref 0 in
  Trace.with_recorder recorder
    ~clock:(fun () -> Engine.now engine)
    (fun () ->
      List.iter
        (fun (a : Workload.arrival) ->
          Engine.run engine ~until:a.Workload.at;
          admit st a)
        arrivals;
      Engine.run engine ~until:(spec.workload.Workload.horizon +. spec.drain);
      (* Stragglers: stop and retire whatever is still running, then
         flush every link and let the epoch-stale deliveries drain so
         all pooled packets come home. *)
      List.iter (retire st) (active_flows st);
      List.iter Link.flush (List.rev st.links);
      Engine.run engine ~until:(Engine.now engine +. spec.retire_grace +. 1.0);
      let now = Engine.now engine in
      Array.iter
        (function
          | None -> ()
          | Some site ->
            Leotp.Midnode.sweep_pit site.gw_mid ~now;
            Leotp.Midnode.sweep_pit site.sky_mid ~now;
            pit_end :=
              !pit_end
              + Leotp.Midnode.pit_pending site.gw_mid
              + Leotp.Midnode.pit_pending site.sky_mid)
        st.sites;
      List.iter Link.trace_final (List.rev st.links);
      reports := Invariants.finalize ~now checker;
      if
        Atomic.get Invariants.self_check
        && not (Invariants.all_ok !reports)
      then
        raise
          (Invariants.Violation
             (Printf.sprintf "fleet shard %d: invariant violation\n%s" shard
                (Invariants.to_string !reports))));
  Runner.note_sim_seconds (Engine.now engine);
  {
    shard;
    flows_offered = List.length arrivals;
    flows_started = st.started;
    flows_completed = st.completed;
    flows_skipped = st.skipped;
    bytes_delivered = st.bytes_delivered;
    packets = Packet.created_on_domain () - packets0;
    events = Engine.events_processed engine;
    flow_sim_seconds = st.flow_sim_seconds;
    sim_end = Engine.now engine;
    route_queries = Path_service.Memo.queries st.memo;
    route_computes = Path_service.Memo.computes st.memo;
    pool_live_delta = Pool.live_count () - pool_live0;
    pit_pending_end = !pit_end;
    peak_active = st.peak_active;
    digest = Trace.digest recorder;
    reports = !reports;
  }

let run spec =
  let arrivals = Workload.generate spec.workload in
  let shards = max 1 spec.shards in
  let parts = Array.make shards [] in
  List.iter
    (fun (a : Workload.arrival) ->
      let s = a.Workload.origin mod shards in
      parts.(s) <- a :: parts.(s))
    arrivals;
  let parts = Array.map List.rev parts in
  let results =
    Runner.map
      (List.init shards (fun s -> run_shard spec ~shard:s ~arrivals:parts.(s)))
  in
  let sum (f : shard_stats -> int) =
    List.fold_left (fun acc r -> acc + f r) 0 results
  in
  let sumf (f : shard_stats -> float) =
    List.fold_left (fun acc r -> acc +. f r) 0.0 results
  in
  {
    flows_offered = List.length arrivals;
    flows_started = sum (fun r -> r.flows_started);
    flows_completed = sum (fun r -> r.flows_completed);
    flows_skipped = sum (fun r -> r.flows_skipped);
    bytes_delivered = sum (fun r -> r.bytes_delivered);
    packets = sum (fun r -> r.packets);
    events = sum (fun r -> r.events);
    flow_sim_seconds = sumf (fun r -> r.flow_sim_seconds);
    sim_seconds = sumf (fun r -> r.sim_end);
    route_queries = sum (fun r -> r.route_queries);
    route_computes = sum (fun r -> r.route_computes);
    pool_live_delta = sum (fun r -> r.pool_live_delta);
    pit_pending_end = sum (fun r -> r.pit_pending_end);
    peak_active = sum (fun r -> r.peak_active);
    (* One stable headline digest for the whole run: the shard digests
       combined in shard order. *)
    digest =
      Trace.combine (List.map (fun (r : shard_stats) -> r.digest) results);
    shards = results;
    invariants_ok =
      List.for_all
        (fun (r : shard_stats) -> Invariants.all_ok r.reports)
        results;
  }
