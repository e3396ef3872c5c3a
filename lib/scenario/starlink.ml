module Dynamic_path = Leotp_net.Dynamic_path
module Path_trace = Leotp_net.Path_trace
module Stats = Leotp_util.Stats
module Cc = Leotp_tcp.Cc

type pair_result = {
  summary : Common.summary;
  mean_hops : float;
  min_propagation : float;
  switches : int;
}

exception No_route of string * string

(* The run's path is a TRACE_PATH, replayed like any other: sampled every
   0.25 s (the uplink's rate resolution), routes recomputed per 5 s
   epoch, the bias drawn from the run's seed. *)
let run_pair ?(quick = false) ?(seed = 42) ~src ~dst ~isls protocol =
  let duration = if quick then 25.0 else 100.0 in
  let warmup = if quick then 6.0 else 15.0 in
  let trace =
    Pathtrace.generate
      {
        Pathtrace.src;
        dst;
        isls;
        horizon = duration;
        step = 0.25;
        route_epoch = 5.0;
        seed;
      }
  in
  if Path_trace.route_count trace = 0 then raise (No_route (src, dst));
  let engine, rng = Common.fresh_engine ~seed in
  let dp = Dynamic_path.of_trace engine ~rng trace in
  let min_propagation = Path_trace.min_total_delay trace in
  let summary =
    Common.run_flow ~engine ~rng ~chain:(Dynamic_path.chain dp)
      ~tcp:Common.Tail_to_head ~floor:min_propagation ~warmup ~duration protocol
  in
  {
    summary;
    mean_hops = Path_trace.mean_hop_count trace;
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
