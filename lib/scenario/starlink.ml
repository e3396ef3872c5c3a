module Bandwidth = Leotp_net.Bandwidth
module Dynamic_path = Leotp_net.Dynamic_path
module Path_service = Leotp_constellation.Path_service
module Walker = Leotp_constellation.Walker
module Cities = Leotp_constellation.Cities
module Stats = Leotp_util.Stats
module Cc = Leotp_tcp.Cc

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec

type pair_result = {
  summary : Common.summary;
  mean_hops : float;
  min_propagation : float;
  switches : int;
}

let gsl_plr = 0.01
let isl_plr = 0.001
let other_bw = 20.0
let uplink_mean_bw = 10.0

type sample = float * [ `Route of Path_service.hop list | `No_route ]

(* Signatures are float lists, so the comparison is
   [Option.equal (List.equal Float.equal)]: polymorphic [<>] on a
   float-containing structure is boxed and nan-unsound. *)
let flag_handovers (samples : sample list) =
  let rec go prev acc = function
    | [] -> List.rev acc
    | ((_, `No_route) as s) :: rest -> go prev ((s, false) :: acc) rest
    | ((_, `Route hops) as s) :: rest ->
      let sig_ = Some (Path_service.signature hops) in
      let ho =
        Option.is_some prev && not (Option.equal (List.equal Float.equal) prev sig_)
      in
      go sig_ ((s, ho) :: acc) rest
  in
  go None [] samples

let handover_times flagged =
  List.filter_map (fun ((t, _), ho) -> if ho then Some t else None) flagged

(* Paper §V-C (ii) and (iv). *)
let uplink_mbps ~rng ~handovers ~t_end =
  let bias =
    Array.init (int_of_float t_end + 2) (fun _ -> Leotp_util.Rng.uniform rng (-0.5) 0.5)
  in
  fun t ->
    let v_dip =
      List.fold_left
        (fun acc h ->
          let x = Float.abs (t -. h) in
          if x < 2.0 then Float.max acc (3.0 *. (1.0 -. (x /. 2.0))) else acc)
        0.0 handovers
    in
    Float.max 1.0 (uplink_mean_bw -. v_dip +. bias.(int_of_float t))

let consumer_first ~hop route =
  let mapped =
    List.mapi
      (fun i (h : Path_service.hop) ->
        let delay = Leotp_constellation.Geo.propagation_delay h.Path_service.distance in
        match h.Path_service.kind with
        | Path_service.Gsl -> hop h ~delay ~uplink:(i = 0) ~plr:gsl_plr
        | Path_service.Isl -> hop h ~delay ~uplink:false ~plr:isl_plr)
      route
  in
  Array.of_list (List.rev mapped)

let to_snapshot ~uplink_bw ~max_hops route =
  let s =
    consumer_first route ~hop:(fun _ ~delay ~uplink ~plr ->
        let bandwidth =
          if uplink then uplink_bw else Bandwidth.Constant (mbps other_bw)
        in
        { Dynamic_path.delay; bandwidth; plr })
  in
  if Array.length s > max_hops then Array.sub s 0 max_hops else s

let run_pair ?(quick = false) ?(seed = 42) ~src ~dst ~isls protocol =
  let duration = if quick then 25.0 else 100.0 in
  let warmup = if quick then 6.0 else 15.0 in
  let recompute = 5.0 in
  let w = Walker.create Walker.starlink in
  let c_src = Cities.find_exn src and c_dst = Cities.find_exn dst in
  let snaps =
    Path_service.snapshots w ~src:c_src ~dst:c_dst ~isls ~t_end:duration
      ~step:recompute
  in
  if snaps = [] then
    invalid_arg (Printf.sprintf "no route between %s and %s" src dst);
  let mean_hops = Path_service.mean_hop_count snaps in
  let min_propagation =
    List.fold_left
      (fun acc (_, h) -> Float.min acc (Path_service.total_delay h))
      Float.infinity snaps
  in
  let handovers =
    handover_times (flag_handovers (List.map (fun (t, h) -> (t, `Route h)) snaps))
  in
  let engine, rng = Common.fresh_engine ~seed in
  let uplink =
    uplink_mbps ~rng:(Leotp_util.Rng.substream rng "uplink") ~handovers ~t_end:duration
  in
  let uplink_bw =
    Bandwidth.Steps
      (Array.init
         (int_of_float (duration /. 0.25) + 2)
         (fun i ->
           let t = float_of_int i *. 0.25 in
           (t, mbps (uplink t))))
  in
  let max_hops =
    min 24 (List.fold_left (fun acc (_, h) -> max acc (Path_service.hop_count h)) 2 snaps)
  in
  let dp =
    Dynamic_path.create engine ~rng ~max_hops
      ~initial:(to_snapshot ~uplink_bw ~max_hops (snd (List.hd snaps)))
      ()
  in
  Dynamic_path.schedule dp
    (List.filter_map
       (fun (t, h) ->
         if Float.equal t 0.0 then None
         else Some (t, to_snapshot ~uplink_bw ~max_hops h))
       snaps);
  let summary =
    Common.run_flow ~engine ~rng ~chain:(Dynamic_path.chain dp)
      ~tcp:Common.Tail_to_head ~floor:min_propagation ~warmup ~duration protocol
  in
  {
    summary;
    mean_hops;
    min_propagation;
    switches = Dynamic_path.switch_count dp;
  }

let protos_161718 =
  [
    (Common.Leotp Leotp.Config.default : Common.protocol);
    Common.Tcp Cc.Bbr;
    Common.Tcp Cc.Pcc;
    Common.Tcp Cc.Hybla;
  ]

let fig16 ?(quick = false) () =
  Report.header "Fig 16: Beijing-Shanghai (no ISLs): OWD / throughput";
  let results =
    Runner.map
      (List.map
         (fun proto () ->
           let r =
             run_pair ~quick ~src:"Beijing" ~dst:"Shanghai" ~isls:false proto
           in
           (Common.protocol_name proto, r))
         protos_161718)
  in
  List.iter
    (fun (name, r) ->
      Report.row
        "  %-8s tput=%5.2f Mbps  owd(avg)=%6.1fms  queuing(avg)=%6.1fms  p99=%6.1fms\n"
        name r.summary.Common.goodput_mbps
        (Report.ms (Stats.mean r.summary.Common.owd))
        (Report.ms (Stats.mean r.summary.Common.queuing_delay))
        (Report.ms (Stats.percentile r.summary.Common.owd 99.0));
      Report.cdf_rows ~points:8 (name ^ " OWD") r.summary.Common.owd)
    results;
  results

let fig17 ?(quick = false) () =
  Report.header "Fig 17: Beijing-New York (with ISLs): OWD / throughput";
  let results =
    Runner.map
      (List.map
         (fun proto () ->
           let r =
             run_pair ~quick ~src:"Beijing" ~dst:"New York" ~isls:true proto
           in
           (Common.protocol_name proto, r))
         protos_161718)
  in
  List.iter
    (fun (name, r) ->
      Report.row
        "  %-8s tput=%5.2f Mbps  owd(avg)=%6.1fms  queuing(avg)=%6.1fms  p99=%6.1fms (hops~%.1f)\n"
        name r.summary.Common.goodput_mbps
        (Report.ms (Stats.mean r.summary.Common.owd))
        (Report.ms (Stats.mean r.summary.Common.queuing_delay))
        (Report.ms (Stats.percentile r.summary.Common.owd 99.0))
        r.mean_hops;
      Report.cdf_rows ~points:8 (name ^ " OWD") r.summary.Common.owd)
    results;
  results

let pairs_18 = [ ("Beijing", "Hong Kong"); ("Beijing", "Paris"); ("Beijing", "New York") ]

let fig18 ?(quick = false) () =
  Report.header "Fig 18: average OWD / throughput vs distance (with ISLs)";
  let protos =
    if quick then
      [
        (Common.Leotp Leotp.Config.default : Common.protocol);
        Common.Leotp_partial (Leotp.Config.default, 0.25);
        Common.Tcp Cc.Bbr;
        Common.Tcp Cc.Pcc;
      ]
    else
      [
        (Common.Leotp Leotp.Config.default : Common.protocol);
        Common.Leotp_partial (Leotp.Config.default, 0.25);
        Common.Tcp Cc.Bbr;
        Common.Tcp Cc.Pcc;
        Common.Tcp Cc.Cubic;
        Common.Tcp Cc.Hybla;
      ]
  in
  let results =
    Runner.map
      (List.concat_map
         (fun (src, dst) ->
           List.map
             (fun proto () ->
               let r = run_pair ~quick ~src ~dst ~isls:true proto in
               ( Printf.sprintf "%s-%s" src dst,
                 Common.protocol_name proto,
                 Stats.mean r.summary.Common.owd,
                 r.summary.Common.goodput_mbps ))
             protos)
         pairs_18)
  in
  List.iter
    (fun (pair, proto, owd, tput) ->
      Report.row "  %-20s %-16s owd=%6.1fms  tput=%5.2f Mbps\n" pair proto
        (Report.ms owd) tput)
    results;
  results

let table2 ?(quick = false) () =
  Report.header "Table II: ablation (A full, B no-cache, C e2e-cc, D no midnodes)";
  let pairs = if quick then [ ("Beijing", "Hong Kong"); ("Beijing", "New York") ] else pairs_18 in
  let configs =
    [
      ("A", Leotp.Config.Full);
      ("B", Leotp.Config.No_cache);
      ("C", Leotp.Config.E2e_cc);
      ("D", Leotp.Config.No_midnodes);
    ]
  in
  let results =
    Runner.map
      (List.concat_map
         (fun (src, dst) ->
           List.map
             (fun (label, ablation) () ->
               let cfg =
                 Leotp.Config.with_ablation ablation Leotp.Config.default
               in
               let r = run_pair ~quick ~src ~dst ~isls:true (Common.Leotp cfg) in
               ( Printf.sprintf "%s-%s" src dst,
                 label,
                 r.summary.Common.goodput_mbps,
                 Report.ms (Stats.mean r.summary.Common.owd) ))
             configs)
         pairs)
  in
  List.iter
    (fun (pair, label, tput, owd) ->
      Report.row "  %-20s %s  tput=%5.2f Mbps  owd=%6.1f ms\n" pair label
        tput owd)
    results;
  results
