(* Integration tests over the experiment harness: shrunken versions of
   the paper's scenarios asserting the qualitative *shape* results the
   paper reports (who wins, in which direction). *)

module C = Leotp_scenario.Common
module Cc = Leotp_tcp.Cc
module Stats = Leotp_util.Stats

let leotp = C.Leotp Leotp.Config.default

let run ?(hops = 5) ?(plr = 0.0) ?(duration = 40.0) ?bandwidth_schedule
    proto =
  C.run_chain ~duration ?bandwidth_schedule
    ~hops:(C.uniform_hops ~n:hops (C.link ~plr ~bw:20.0 ~delay:0.01 ()))
    proto

let test_summary_fields () =
  let s = run ~plr:0.005 leotp in
  Alcotest.(check string) "name" "leotp" s.C.protocol;
  Alcotest.(check bool) "positive goodput" true (s.C.goodput_mbps > 1.0);
  Alcotest.(check bool) "owd samples" true (Stats.count s.C.owd > 100);
  Alcotest.(check bool) "queuing >= 0" true (Stats.min s.C.queuing_delay >= 0.0);
  Alcotest.(check bool) "wire bytes counted" true (s.C.wire_bytes > s.C.app_bytes / 2)

let test_protocol_names_round_trip () =
  let cfg a = Leotp.Config.with_ablation a Leotp.Config.default in
  let protocols =
    [ leotp; C.Leotp (cfg Leotp.Config.No_cache);
      C.Leotp (cfg Leotp.Config.E2e_cc); C.Leotp (cfg Leotp.Config.No_midnodes) ]
    @ List.map (fun a -> C.Tcp a) Cc.all
    @ List.map (fun a -> C.Split_tcp a) Cc.all
  in
  Alcotest.(check int) "3 ablations + 7 + 7 TCP" 18 (List.length protocols);
  List.iter
    (fun p ->
      let name = C.protocol_name p in
      Alcotest.(check bool) name true (C.protocol_of_name name = Some p))
    protocols;
  List.iter
    (fun (alias, p) ->
      Alcotest.(check bool) alias true (C.protocol_of_name alias = Some p))
    [ ("leotp-b", C.Leotp (cfg Leotp.Config.No_cache));
      ("LEOTP-no-cache", C.Leotp (cfg Leotp.Config.No_cache));
      ("leotp-e2e-cc", C.Leotp (cfg Leotp.Config.E2e_cc));
      ("leotp-d", C.Leotp (cfg Leotp.Config.No_midnodes));
      ("split-bbr", C.Split_tcp Cc.Bbr) ];
  List.iter
    (fun bad ->
      Alcotest.(check bool) bad true (C.protocol_of_name bad = None))
    [ ""; "tcp"; "split-"; "split-leotp"; "leotp-50%cov"; "split-cubic-x" ]

let test_leotp_loss_insensitive_vs_cubic () =
  (* The Fig 12 shape: at 1%/hop loss LEOTP retains most of its clean
     throughput while Cubic collapses. *)
  let l_clean = run leotp and l_lossy = run ~plr:0.01 leotp in
  let c_clean = run (C.Tcp Cc.Cubic) and c_lossy = run ~plr:0.01 (C.Tcp Cc.Cubic) in
  let ratio a b = b.C.goodput_mbps /. a.C.goodput_mbps in
  Alcotest.(check bool)
    (Printf.sprintf "leotp keeps %.2f, cubic keeps %.2f"
       (ratio l_clean l_lossy) (ratio c_clean c_lossy))
    true
    (ratio l_clean l_lossy > ratio c_clean c_lossy +. 0.15)

let test_leotp_lower_queuing_than_cubic () =
  (* Loss-based TCP fills the bottleneck buffer; LEOTP's RTT-based hop
     control keeps queues near-empty (Figs 5/14/16 shape). *)
  let l = run leotp and c = run (C.Tcp Cc.Cubic) in
  Alcotest.(check bool)
    (Printf.sprintf "leotp %.1f ms < cubic %.1f ms"
       (Stats.mean l.C.queuing_delay *. 1000.0)
       (Stats.mean c.C.queuing_delay *. 1000.0))
    true
    (Stats.mean l.C.queuing_delay < Stats.mean c.C.queuing_delay)

let test_split_reduces_loss_penalty () =
  (* Fig 4 shape: splitting a lossy path rescues Cubic's throughput but
     costs delay. *)
  let e2e = run ~hops:8 ~plr:0.005 ~duration:50.0 (C.Tcp Cc.Cubic) in
  let split = run ~hops:8 ~plr:0.005 ~duration:50.0 (C.Split_tcp Cc.Cubic) in
  Alcotest.(check bool)
    (Printf.sprintf "split %.2f > e2e %.2f Mbps" split.C.goodput_mbps
       e2e.C.goodput_mbps)
    true
    (split.C.goodput_mbps > e2e.C.goodput_mbps);
  Alcotest.(check bool) "split delays data" true
    (Stats.mean split.C.owd >= Stats.mean e2e.C.owd)

let test_fluctuating_bottleneck_queue () =
  (* Fig 5/14 shape: under a fluctuating bottleneck with a long feedback
     loop, LEOTP's queuing stays below Cubic's. *)
  let schedule =
    [ (1, Leotp_net.Bandwidth.square_mbps ~mean:10.0 ~amplitude:1.0 ~period:2.0) ]
  in
  let l = run ~hops:5 ~duration:40.0 ~bandwidth_schedule:schedule leotp in
  let c = run ~hops:5 ~duration:40.0 ~bandwidth_schedule:schedule (C.Tcp Cc.Cubic) in
  Alcotest.(check bool)
    (Printf.sprintf "leotp q=%.1f ms, cubic q=%.1f ms"
       (Stats.mean l.C.queuing_delay *. 1000.0)
       (Stats.mean c.C.queuing_delay *. 1000.0))
    true
    (Stats.mean l.C.queuing_delay < Stats.mean c.C.queuing_delay);
  Alcotest.(check bool) "still delivers" true (l.C.goodput_mbps > 4.0)

let test_fairness_dumbbell_runs () =
  let summaries, series =
    C.run_flows_dumbbell ~duration:240.0
      ~access_delays:[ 0.0075; 0.0075; 0.0075 ]
      ~bottleneck:(C.link ~bw:5.0 ~delay:0.015 ())
      ~access:(C.link ~bw:100.0 ~delay:0.0075 ())
      ~starts:[ 0.0; 30.0; 60.0 ] leotp
  in
  Alcotest.(check int) "3 summaries" 3 (List.length summaries);
  Alcotest.(check int) "3 series" 3 (List.length series);
  (* All flows deliver data once started. *)
  List.iter
    (fun s -> Alcotest.(check bool) "flow active" true (s.C.app_bytes > 100_000))
    summaries;
  let rates =
    List.map
      (fun s ->
        Leotp_util.Units.bytes_per_sec_to_mbps
          (Leotp_util.Timeseries.window_sum s.C.delivery ~lo:120.0 ~hi:240.0
          /. 120.0))
      summaries
  in
  Alcotest.(check bool)
    (Printf.sprintf "fair-ish sharing (jain %.2f)" (Stats.jain_index rates))
    true
    (Stats.jain_index rates > 0.65)

let test_starlink_pair_shape () =
  (* Beijing-Shanghai without ISLs: both protocols work; LEOTP keeps its
     average queuing under ~60 ms (paper: ~16 ms vs PCC's 400+). *)
  let r =
    Leotp_scenario.Starlink.run_pair ~quick:true ~src:"Beijing" ~dst:"Shanghai"
      ~isls:false leotp
  in
  let s = r.Leotp_scenario.Starlink.summary in
  Alcotest.(check bool) "delivers" true (s.C.goodput_mbps > 4.0);
  Alcotest.(check bool)
    (Printf.sprintf "queuing %.1f ms bounded"
       (Stats.mean s.C.queuing_delay *. 1000.0))
    true
    (Stats.mean s.C.queuing_delay < 0.06);
  Alcotest.(check bool) "handover happened" true
    (r.Leotp_scenario.Starlink.switches >= 0)

let test_starlink_isls_long_path () =
  let r =
    Leotp_scenario.Starlink.run_pair ~quick:true ~src:"Beijing" ~dst:"New York"
      ~isls:true leotp
  in
  Alcotest.(check bool) "long path" true (r.Leotp_scenario.Starlink.mean_hops > 8.0);
  Alcotest.(check bool) "delivers across the Pacific" true
    (r.Leotp_scenario.Starlink.summary.C.goodput_mbps > 2.0)

(* Worker-domain count for the determinism tests: 4 by default, but
   overridable so bin/ci.sh can re-run the dynamic backstop with a
   different parallelism (LEOTP_TEST_JOBS=2) than the dev default. *)
let determinism_jobs () =
  match Option.bind (Sys.getenv_opt "LEOTP_TEST_JOBS") int_of_string_opt with
  | Some n when n >= 2 -> n
  | _ -> 4

let test_runner_parallel_determinism () =
  (* The acceptance bar for bench --jobs N: a sweep run on N worker
     domains must produce results byte-identical to the sequential run
     (every job owns its engine/rng and resets domain-local id counters,
     so exact float equality is required, not approximate). *)
  let module R = Leotp_scenario.Runner in
  let njobs = determinism_jobs () in
  let sweep () =
    R.grid
      [ leotp; C.Tcp Cc.Cubic ]
      [ 0.0; 0.01 ]
      (fun proto plr ->
        let s = run ~plr ~duration:12.0 proto in
        ( s.C.goodput_mbps,
          s.C.wire_bytes,
          s.C.app_bytes,
          s.C.retransmissions,
          s.C.congestion_drops,
          Stats.mean s.C.owd,
          Stats.mean s.C.queuing_delay ))
    |> List.concat_map (fun (_, rows) -> List.map snd rows)
  in
  R.set_jobs 1;
  let sequential = sweep () in
  R.set_jobs njobs;
  let parallel = sweep () in
  R.set_jobs 1;
  Alcotest.(check int) "same cell count" (List.length sequential)
    (List.length parallel);
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d identical (seq vs jobs=%d)" i njobs)
        true (s = p))
    (List.combine sequential parallel)

(* The runner's allocation count reads a job's young words as they are
   made, not when a minor collection folds them into [Gc.counters]: a
   job of 1000 fresh three-word blocks (header and two ints) reports
   3000 words, give or take the runner's own few reads, whether or not
   a collection falls inside it and whatever the parallelism. *)
let test_runner_counts_young_words () =
  let module R = Leotp_scenario.Runner in
  let n = 1000 in
  let job () =
    for i = 1 to n do
      ignore (Sys.opaque_identity [| i; i |])
    done
  in
  List.iter
    (fun jobs ->
      R.set_jobs jobs;
      Gc.minor ();
      R.reset_counters ();
      ignore (R.map [ job ]);
      let words =
        (R.counters ()).R.alloc_bytes /. float_of_int (Sys.word_size / 8)
      in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: %.0f words for %d" jobs words (3 * n))
        true
        (Float.abs (words -. float_of_int (3 * n)) <= 32.0))
    [ 1; 2 ];
  R.set_jobs 1

let test_theory_experiment_values () =
  let rows = Leotp_scenario.Experiments.fig03 () in
  match rows with
  | [ (_, e2e); (_, hbh) ] ->
    let get k l = List.assoc k l in
    Alcotest.(check (float 1e-9)) "e2e p99 = 300ms" 0.3 (get "p99" e2e);
    Alcotest.(check (float 1e-9)) "hbh p99 = 120ms" 0.12 (get "p99" hbh);
    Alcotest.(check bool) "hbh mean lower" true (get "mean" hbh < get "mean" e2e)
  | _ -> Alcotest.fail "two schemes expected"

let () =
  Alcotest.run "leotp_scenario"
    [
      ( "harness",
        [
          Alcotest.test_case "summary fields" `Quick test_summary_fields;
          Alcotest.test_case "fairness runs" `Quick test_fairness_dumbbell_runs;
          Alcotest.test_case "theory rows" `Quick test_theory_experiment_values;
          Alcotest.test_case "parallel determinism" `Quick
            test_runner_parallel_determinism;
          Alcotest.test_case "protocol names round-trip" `Quick
            test_protocol_names_round_trip;
          Alcotest.test_case "allocation counts young words" `Quick
            test_runner_counts_young_words;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "loss insensitivity vs cubic" `Slow
            test_leotp_loss_insensitive_vs_cubic;
          Alcotest.test_case "lower queuing than cubic" `Slow
            test_leotp_lower_queuing_than_cubic;
          Alcotest.test_case "split rescues cubic" `Slow
            test_split_reduces_loss_penalty;
          Alcotest.test_case "fluctuating bottleneck" `Slow
            test_fluctuating_bottleneck_queue;
        ] );
      ( "starlink",
        [
          Alcotest.test_case "BJ-SH bent pipe" `Slow test_starlink_pair_shape;
          Alcotest.test_case "BJ-NY ISLs" `Slow test_starlink_isls_long_path;
        ] );
    ]
