module Dynamic_path = Leotp_net.Dynamic_path
module Path_trace = Leotp_net.Path_trace
module Path_service = Leotp_constellation.Path_service
module Walker = Leotp_constellation.Walker
module Cities = Leotp_constellation.Cities
module Rng = Leotp_util.Rng
module Stats = Leotp_util.Stats

type spec = {
  src : string;
  dst : string;
  isls : bool;
  horizon : float;  (** seconds of orbital time *)
  step : float;  (** trace sample step, seconds *)
  route_epoch : float;  (** routing recompute quantum (Memo epoch) *)
  seed : int;
}

let default =
  {
    src = "Beijing";
    dst = "New York";
    isls = true;
    horizon = 3600.0;
    step = 1.0;
    route_epoch = 5.0;
    seed = 42;
  }

(* ------------------------------------------------------------------ *)
(* Generator: drive the Walker constellation over [horizon], sampling
   the route every [step] seconds (Dijkstra runs once per [route_epoch]
   via the Memo), and emit the per-hop timeline under Starlink's path
   model: the Producer uplink is the ~10 Mbps bottleneck with the
   handover "V" dip and per-second bias, other hops 20 Mbps, per-kind
   loss.  The samples are baked into the trace, so a replay needs no RNG
   agreement with the generator. *)

let generate spec =
  let w = Walker.create Walker.starlink in
  let src = Cities.find_exn spec.src and dst = Cities.find_exn spec.dst in
  let flagged =
    Starlink.flag_handovers
      (Path_service.snapshots_with_gaps ~epoch:spec.route_epoch w ~src ~dst
         ~isls:spec.isls ~t_end:spec.horizon ~step:spec.step)
  in
  let uplink_mbps =
    Starlink.uplink_mbps
      ~rng:(Rng.substream (Rng.create ~seed:spec.seed) "uplink-bias")
      ~handovers:(Starlink.handover_times flagged)
      ~t_end:spec.horizon
  in
  let records =
    List.map
      (fun ((t, entry), handover) ->
        match entry with
        | `No_route -> { Path_trace.time = t; event = Path_trace.No_route }
        | `Route route ->
          let hops =
            Starlink.consumer_first route ~hop:(fun h ~delay ~uplink ~plr ->
                let kind =
                  match h.Path_service.kind with
                  | Path_service.Gsl -> Path_trace.Gsl
                  | Path_service.Isl -> Path_trace.Isl
                in
                let bw_mbps = if uplink then uplink_mbps t else Starlink.other_bw in
                { Path_trace.delay; bw_mbps; plr; kind })
          in
          { Path_trace.time = t; event = Path_trace.Route { hops; handover } })
      flagged
  in
  {
    Path_trace.meta =
      {
        Path_trace.seed = spec.seed;
        src = spec.src;
        dst = spec.dst;
        isls = spec.isls;
        step = spec.step;
        horizon = spec.horizon;
      };
    records;
  }

(* ------------------------------------------------------------------ *)
(* Replay: one bulk flow over a Dynamic_path fed by the trace. *)

type run_result = {
  summary : Common.summary;
  switches : int;
  handovers : int;
  outages : int;  (** outage interval count *)
  outage_fraction : float;
  mean_hops : float;
  digest : string;  (** packet-trace digest: the determinism witness *)
}

let run ?seed ?duration ?(label = "pathtrace") (trace : Path_trace.t) =
  if Path_trace.route_count trace = 0 then
    invalid_arg "Pathtrace.run: trace has no route records";
  let meta = trace.Path_trace.meta in
  let duration = Option.value duration ~default:meta.Path_trace.horizon in
  let engine, rng =
    Common.fresh_engine ~seed:(Option.value seed ~default:meta.Path_trace.seed)
  in
  let max_hops = min 24 (Path_trace.max_hop_count trace) in
  let initial =
    match
      List.find_map
        (fun (r : Path_trace.record) ->
          match r.Path_trace.event with
          | Path_trace.Route { hops; _ } -> Some hops
          | Path_trace.No_route -> None)
        trace.Path_trace.records
    with
    | Some hops -> Dynamic_path.snapshot_of_hops ~max_hops hops
    | None -> assert false
  in
  let dp = Dynamic_path.create engine ~rng ~max_hops ~initial () in
  Dynamic_path.schedule_trace dp trace;
  let chain = Dynamic_path.chain dp in
  let recorder = Leotp_net.Trace.create ~capacity:1 () in
  let summary =
    Common.run_flow ~trace:recorder ~label ~engine ~rng ~chain
      ~links:
        (* last hop first: the end-of-run link records the digest covers *)
        (Array.fold_left
           (fun acc (d : Leotp_net.Topology.duplex) ->
             d.Leotp_net.Topology.fwd :: d.Leotp_net.Topology.rev :: acc)
           [] chain.Leotp_net.Topology.hops)
      ~tcp:Common.Tail_to_head
      ~floor:(Path_trace.min_total_delay trace)
      ~warmup:(Float.min 15.0 (0.15 *. duration))
      ~duration (Common.Leotp Leotp.Config.default)
  in
  {
    summary;
    switches = Dynamic_path.switch_count dp;
    handovers = Path_trace.handover_count trace;
    outages = List.length (Path_trace.outage_intervals trace);
    outage_fraction = Path_trace.outage_fraction trace;
    mean_hops = Path_trace.mean_hop_count trace;
    digest = Leotp_net.Trace.digest recorder;
  }

(* ------------------------------------------------------------------ *)
(* Long-horizon experiment family: ISL long haul (hundreds of
   handovers), a bent-pipe outage storm, and a polar vs equatorial
   comparison.  Cells are independent and run under Runner.map, so the
   results — including digests — are bit-identical for any --jobs N. *)

type cell = { label : string; spec : spec }

(* Hong Kong-Tokyo sits near the edge of common visibility; quick mode
   shrinks horizons and drops the comparison pairs. *)
let family ~quick =
  if quick then
    [
      { label = "bj-ny-isl"; spec = { default with horizon = 120.0 } };
      {
        label = "hk-tokyo-bent";
        spec =
          {
            default with
            src = "Hong Kong";
            dst = "Tokyo";
            isls = false;
            horizon = 180.0;
            route_epoch = 1.0;
          };
      };
    ]
  else
    [
      { label = "bj-ny-isl"; spec = default };
      {
        label = "hk-tokyo-bent";
        spec =
          {
            default with
            src = "Hong Kong";
            dst = "Tokyo";
            isls = false;
            route_epoch = 1.0;
          };
      };
      {
        label = "polar-spb-moscow";
        spec =
          {
            default with
            src = "Saint Petersburg";
            dst = "Moscow";
            horizon = 1800.0;
          };
      };
      {
        label = "equator-sgp-nairobi";
        spec =
          {
            default with
            src = "Singapore";
            dst = "Nairobi";
            horizon = 1800.0;
          };
      };
    ]

let experiment ?(quick = false) () =
  Report.header
    "Path trace: long-horizon trace-driven dynamic paths (gen -> replay)";
  let results =
    Runner.map
      (List.map
         (fun c () ->
           let tr = generate c.spec in
           (c, run ~label:c.label tr))
         (family ~quick))
  in
  List.iter
    (fun (c, r) ->
      Report.row
        "  %-20s %5.0fs %s  hops~%4.1f  handovers %4d  outages %3d \
         (%4.1f%%)  switches %4d\n"
        c.label c.spec.horizon
        (if c.spec.isls then "isl " else "bent")
        r.mean_hops r.handovers r.outages
        (100.0 *. r.outage_fraction)
        r.switches;
      Report.row
        "  %-20s tput=%5.2f Mbps  owd(avg)=%6.1fms  p99=%6.1fms  digest %s\n"
        "" r.summary.Common.goodput_mbps
        (Report.ms (Stats.mean r.summary.Common.owd))
        (Report.ms (Stats.percentile r.summary.Common.owd 99.0))
        r.digest)
    results;
  results
