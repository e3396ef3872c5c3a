module Cc = Leotp_tcp.Cc
module Stats = Leotp_util.Stats
module Bandwidth = Leotp_net.Bandwidth

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec
let leotp_default = Common.Leotp Leotp.Config.default

(* Every sweep below is expressed as a batch of independent jobs handed
   to [Runner] (grid = protocol x parameter cross product, map = a flat
   list).  Each job builds its own engine/rng/topology inside
   [Common.run_chain], so results are identical at any --jobs level;
   printing happens only after the batch completes. *)

(* ------------------------------------------------------------------ *)
(* Fig 2: TCP throughput collapse vs hop count (0.5% loss per hop).     *)

let fig02 ?(quick = false) () =
  Report.header "Fig 2: TCP throughput vs hop count (20 Mbps, 10 ms hopRTT, 0.5%/hop)";
  let duration = if quick then 15.0 else 60.0 in
  let hop_counts = if quick then [ 1; 5; 10 ] else [ 1; 2; 4; 6; 8; 10 ] in
  let algos = [ Cc.Cubic; Cc.Hybla; Cc.Bbr; Cc.Pcc ] in
  let results =
    Runner.grid algos hop_counts (fun cc n ->
        let s =
          Common.run_chain ~duration
            ~hops:
              (Common.uniform_hops ~n
                 (Common.link ~plr:0.005 ~bw:20.0 ~delay:0.005 ()))
            (Common.Tcp cc)
        in
        s.Common.goodput_mbps)
    |> List.map (fun (cc, rows) -> (Cc.algo_name cc, rows))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-10s" name;
      List.iter (fun (n, t) -> Report.row "  %2d hops: %5.2f" n t) rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 3: theoretical OWD distributions (10 hops, 0.5%, 10 ms).        *)

let fig03 () =
  Report.header "Fig 3: theoretical per-packet OWD, e2e vs hop-by-hop retransmission";
  let p = 0.005 and hops = 10 and d = 0.01 in
  let stats_of dist =
    let q pct = Leotp_theory.Retrans.Owd_dist.percentile dist pct in
    [
      ("mean", Leotp_theory.Retrans.Owd_dist.mean dist);
      ("p50", q 50.0);
      ("p90", q 90.0);
      ("p99", q 99.0);
      ("p99.999", q 99.999);
    ]
  in
  let e2e = Leotp_theory.Retrans.Owd_dist.e2e ~p ~hops ~d in
  let hbh = Leotp_theory.Retrans.Owd_dist.hbh ~p ~hops ~d in
  let results = [ ("end-to-end", stats_of e2e); ("hop-by-hop", stats_of hbh) ] in
  List.iter
    (fun (name, stats) ->
      Report.row "  %-12s" name;
      List.iter (fun (k, v) -> Report.row "  %s=%5.0fms" k (Report.ms v)) stats;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 4: Split TCP vs TCP trade-off (10 hops, 20 Mbps, 0.5%/hop).      *)

let fig04 ?(quick = false) () =
  Report.header "Fig 4: throughput-OWD trade-off, Split TCP vs TCP (10 hops, 0.5%/hop)";
  let duration = if quick then 15.0 else 60.0 in
  let hops =
    Common.uniform_hops ~n:10 (Common.link ~plr:0.005 ~bw:20.0 ~delay:0.005 ())
  in
  let algos = [ Cc.Cubic; Cc.Hybla; Cc.Bbr; Cc.Pcc ] in
  let protos =
    List.concat_map
      (fun cc -> [ Common.Tcp cc; Common.Split_tcp cc ])
      algos
  in
  let results =
    Runner.map
      (List.map
         (fun proto () ->
           let s = Common.run_chain ~duration ~hops proto in
           (s.Common.protocol, (s.Common.goodput_mbps, Stats.mean s.Common.owd)))
         protos)
  in
  List.iter
    (fun (name, (tput, owd)) ->
      Report.row "  %-16s tput=%5.2f Mbps  mean OWD=%6.1f ms\n" name tput
        (Report.ms owd))
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 5: queuing delay and congestion loss vs propagation delay under  *)
(* a fluctuating bottleneck (10 +/- 1 Mbps square wave, 2 s period).    *)

let fig05 ?(quick = false) () =
  Report.header
    "Fig 5: queuing delay / congestion loss vs propagation delay (fluctuating bottleneck)";
  let duration = if quick then 15.0 else 60.0 in
  let delays = if quick then [ 0.02; 0.1 ] else [ 0.02; 0.04; 0.06; 0.08; 0.1 ] in
  let algos = [ Cc.Cubic; Cc.Hybla; Cc.Bbr ] in
  let results =
    Runner.grid algos delays (fun cc prop ->
        (* 5 hops; hop 2 is the fluctuating bottleneck. *)
        let hop_delay = prop /. 5.0 in
        let hops =
          Common.uniform_hops ~n:5 (Common.link ~bw:20.0 ~delay:hop_delay ())
        in
        let s =
          Common.run_chain ~duration ~hops
            ~bandwidth_schedule:
              [ (2, Bandwidth.square_mbps ~mean:10.0 ~amplitude:1.0 ~period:2.0) ]
            (Common.Tcp cc)
        in
        (Stats.mean s.Common.queuing_delay, s.Common.congestion_drops))
    |> List.map (fun (cc, rows) ->
           ( Cc.algo_name cc,
             List.map (fun (p, (q, drops)) -> (p, q, drops)) rows ))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-8s" name;
      List.iter
        (fun (p, q, drops) ->
          Report.row "  %3.0fms: q=%5.1fms loss=%d" (Report.ms p) (Report.ms q) drops)
        rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 10: OWD of retransmitted packets (5 hops, 20 Mbps, 20 ms hopRTT) *)

let fig10 ?(quick = false) () =
  Report.header "Fig 10: OWD of retransmitted packets, LEOTP vs BBR (5 hops)";
  let duration = if quick then 20.0 else 80.0 in
  let plrs = if quick then [ 0.01 ] else [ 0.005; 0.01; 0.02 ] in
  let protos = [ leotp_default; Common.Tcp Cc.Bbr ] in
  let results =
    Runner.grid protos plrs (fun proto plr ->
        let s =
          Common.run_chain ~duration
            ~hops:
              (Common.uniform_hops ~n:5
                 (Common.link ~plr ~bw:20.0 ~delay:0.01 ()))
            proto
        in
        let r = s.Common.retx_owd in
        if Stats.is_empty r then (Float.nan, Float.nan)
        else (Stats.mean r, Stats.percentile r 99.0))
    |> List.map (fun (proto, rows) ->
           ( Common.protocol_name proto,
             List.map (fun (plr, (mean, p99)) -> (plr, mean, p99)) rows ))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-8s" name;
      List.iter
        (fun (plr, mean, p99) ->
          Report.row "  plr=%.3f: mean=%5.1fms p99=%5.1fms" plr
            (Report.ms mean) (Report.ms p99))
        rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 11: origin traffic for a fixed file vs loss rate.                *)

let fig11 ?(quick = false) () =
  let file = Leotp_util.Units.mb_to_bytes_int (if quick then 5 else 100) in
  Report.header
    (Printf.sprintf "Fig 11: origin traffic for a %d MB file vs per-hop loss"
       (Leotp_util.Units.bytes_to_mb_int file));
  let plrs = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.005; 0.01; 0.015; 0.02 ] in
  let protos = [ leotp_default; Common.Tcp Cc.Bbr ] in
  let results =
    Runner.grid protos plrs (fun proto plr ->
        let s =
          Common.run_chain ~bytes:file ~duration:2000.0
            ~hops:
              (Common.uniform_hops ~n:5
                 (Common.link ~plr ~bw:20.0 ~delay:0.01 ()))
            proto
        in
        Leotp_util.Units.bytes_to_mb (float_of_int s.Common.wire_bytes))
    |> List.map (fun (proto, rows) -> (Common.protocol_name proto, rows))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-8s" name;
      List.iter (fun (plr, mb) -> Report.row "  plr=%.3f: %.1f MB" plr mb) rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 12: throughput vs per-hop PLR (5 hops).                          *)

let fig12 ?(quick = false) () =
  Report.header "Fig 12: throughput vs per-hop loss rate (5 hops, 20 Mbps)";
  let duration = if quick then 15.0 else 60.0 in
  let plrs = if quick then [ 0.0; 0.01 ] else [ 0.0; 0.001; 0.0025; 0.005; 0.01 ] in
  let protos =
    leotp_default
    :: List.map (fun cc -> Common.Tcp cc)
         [ Cc.Cubic; Cc.Hybla; Cc.Westwood; Cc.Vegas; Cc.Bbr; Cc.Pcc ]
  in
  let results =
    Runner.grid protos plrs (fun proto plr ->
        let s =
          Common.run_chain ~duration
            ~hops:
              (Common.uniform_hops ~n:5
                 (Common.link ~plr ~bw:20.0 ~delay:0.01 ()))
            proto
        in
        s.Common.goodput_mbps)
    |> List.map (fun (proto, rows) -> (Common.protocol_name proto, rows))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-10s" name;
      List.iter (fun (plr, t) -> Report.row "  %.2f%%: %5.2f" (plr *. 100.0) t) rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 13: throughput vs path-switching interval.                      *)

let fig13 ?(quick = false) () =
  Report.header "Fig 13: throughput vs path switching interval (80/90 ms RTT alternation)";
  let duration = if quick then 20.0 else 80.0 in
  let intervals = if quick then [ 1.0; 8.0 ] else [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let protos =
    [
      leotp_default;
      Common.Tcp Cc.Bbr;
      Common.Tcp Cc.Pcc;
      Common.Tcp Cc.Cubic;
      Common.Tcp Cc.Vegas;
    ]
  in
  (* 4 hops at 20 Mbps; alternating total one-way delay 40 ms <-> 45 ms
     (RTT 80 <-> 90 ms); each switch flushes in-flight packets. *)
  let run proto interval =
    let engine, rng = Common.fresh_engine ~seed:42 in
    let hop d =
      {
        Leotp_net.Dynamic_path.delay = d;
        bandwidth = Bandwidth.Constant (mbps 20.0);
        plr = 0.0;
      }
    in
    let snapshot d = Array.make 4 (hop d) in
    let dp =
      Leotp_net.Dynamic_path.create engine ~rng ~max_hops:4
        ~initial:(snapshot 0.01) ()
    in
    let rec switches i =
      let time = interval *. float_of_int i in
      if time < duration then
        (time, snapshot (if i mod 2 = 0 then 0.01 else 0.01125)) :: switches (i + 1)
      else []
    in
    Leotp_net.Dynamic_path.schedule dp (switches 1);
    let s =
      Common.run_flow
        ~label:(Printf.sprintf "fig13:%s" (Common.protocol_name proto))
        ~engine ~rng
        ~chain:(Leotp_net.Dynamic_path.chain dp)
        ~tcp:Common.Head_to_tail ~floor:0.04 ~warmup:10.0 ~duration proto
    in
    s.Common.goodput_mbps
  in
  let results =
    Runner.grid protos intervals run
    |> List.map (fun (proto, rows) -> (Common.protocol_name proto, rows))
  in
  List.iter
    (fun (name, rows) ->
      Report.row "  %-8s" name;
      List.iter (fun (i, t) -> Report.row "  %4.0fs: %5.2f" i t) rows;
      Report.newline ())
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 14: throughput-delay trade-off under bandwidth fluctuation.     *)

let fig14 ?(quick = false) () =
  Report.header
    "Fig 14: throughput-OWD trade-off under a fluctuating bottleneck (10 hops)";
  let duration = if quick then 20.0 else 80.0 in
  let hops =
    Common.uniform_hops ~n:10 (Common.link ~bw:20.0 ~delay:0.01 ())
  in
  let schedule =
    [ (1, Bandwidth.square_mbps ~mean:10.0 ~amplitude:1.0 ~period:2.0) ]
  in
  let bl_targets = if quick then [ 20_000; 80_000 ] else [ 10_000; 20_000; 40_000; 80_000; 160_000 ] in
  let runs =
    List.map
      (fun bl ->
        ( Printf.sprintf "leotp-bl%dk" (bl / 1000),
          Common.Leotp { Leotp.Config.default with Leotp.Config.bl_target = bl } ))
      bl_targets
    @ [
        ( "leotp-e2e(D)",
          Common.Leotp
            (Leotp.Config.with_ablation Leotp.Config.No_midnodes
               Leotp.Config.default) );
      ]
    @ List.map
        (fun cc -> (Cc.algo_name cc, Common.Tcp cc))
        [ Cc.Cubic; Cc.Hybla; Cc.Bbr; Cc.Pcc ]
  in
  let results =
    Runner.map
      (List.map
         (fun (label, proto) () ->
           let s =
             Common.run_chain ~duration ~hops ~bandwidth_schedule:schedule proto
           in
           (label, (s.Common.goodput_mbps, Stats.mean s.Common.queuing_delay)))
         runs)
  in
  List.iter
    (fun (name, (tput, q)) ->
      Report.row "  %-14s tput=%5.2f Mbps  queuing=%6.1f ms\n" name tput
        (Report.ms q))
    results;
  results

(* ------------------------------------------------------------------ *)
(* Fig 15: intra-protocol fairness.                                    *)

let fig15 ?(quick = false) () =
  Report.header "Fig 15: fairness of 3 staggered flows sharing a 5 Mbps bottleneck";
  let duration = if quick then 90.0 else 600.0 in
  let starts = if quick then [ 0.0; 25.0; 50.0 ] else [ 0.0; 200.0; 400.0 ] in
  let measure label proto access_delays =
    let summaries, _series =
      Common.run_flows_dumbbell ~duration ~access_delays
        ~bottleneck:(Common.link ~bw:5.0 ~delay:0.015 ())
        ~access:(Common.link ~bw:100.0 ~delay:0.0075 ())
        ~starts proto
    in
    (* Fair-share window: all three flows active. *)
    let lo = List.nth starts 2 +. 20.0 and hi = duration in
    let rates =
      List.map
        (fun s -> Leotp_net.Flow_metrics.goodput_mbps s.Common.delivery ~lo ~hi)
        summaries
    in
    (label, Stats.jain_index rates, rates)
  in
  let same = [ 0.0075; 0.0075; 0.0075 ] in
  (* One-way floors 45/60/75 ms -> RTTs 90/120/150 ms. *)
  let diff = [ 0.015; 0.0225; 0.03 ] in
  let results =
    Runner.map
      [
        (fun () -> measure "leotp same-RTT" leotp_default same);
        (fun () -> measure "bbr   same-RTT" (Common.Tcp Cc.Bbr) same);
        (fun () -> measure "leotp diff-RTT" leotp_default diff);
        (fun () -> measure "bbr   diff-RTT" (Common.Tcp Cc.Bbr) diff);
      ]
  in
  List.iter
    (fun (label, jain, rates) ->
      Report.row "  %-16s jain=%.3f  rates=[%s] Mbps\n" label jain
        (String.concat "; " (List.map (Printf.sprintf "%.2f") rates)))
    results;
  results
