(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation.

   Usage:
     dune exec bench/main.exe                    # everything, full size
     dune exec bench/main.exe -- --quick         # shrunk runs
     dune exec bench/main.exe -- fig12 table2    # selected experiments
     dune exec bench/main.exe -- fig19           # Bechamel CPU micro-bench
     dune exec bench/main.exe -- --jobs 4 fig12  # sweep cells on 4 domains
     dune exec bench/main.exe -- --perf-smoke    # fixed quick subset + JSON

   --jobs N runs each experiment's independent simulation cells on N
   worker domains; results are bit-identical to --jobs 1 (each cell owns
   its engine/rng/topology and domain-local id counters).

   Every experiment additionally writes a machine-readable perf record
   BENCH_<id>.json (to --out-dir DIR, default '.') so the perf
   trajectory can be tracked across commits; see EXPERIMENTS.md for the
   schema.

   Absolute numbers are not expected to match the authors' testbed; the
   qualitative shape (who wins, by roughly what factor, where crossovers
   fall) is the reproduction target.  See EXPERIMENTS.md for the
   paper-vs-measured record. *)

module E = Leotp_scenario.Experiments
module S = Leotp_scenario.Starlink
module Runner = Leotp_scenario.Runner
module Common = Leotp_scenario.Common
module Invariants = Leotp_scenario.Invariants
module Fault = Leotp_sim.Fault
module Trace = Leotp_net.Trace
module Fuzz = Leotp_scenario.Fuzz
module Fleet = Leotp_scenario.Fleet
module Workload = Leotp_scenario.Workload
module Pathtrace = Leotp_scenario.Pathtrace
module Path_trace = Leotp_net.Path_trace
module Stats = Leotp_util.Stats

(* ------------------------------------------------------------------ *)
(* Fig 19: Midnode CPU overhead, as per-packet processing cost          *)
(* (Bechamel micro-benchmarks; flat-in-PLR is the paper's claim).       *)

let config = Leotp.Config.default
let bench_mss = config.Leotp.Config.mss

(* Feed a stream of 256 data packets (with [plr] of them missing, which
   exercises SHR hole tracking and VPH generation) through a fresh
   Midnode handler.  The loss pattern is fixed once; the packets are
   pool-acquired per iteration because every sink recycles them — a
   pre-built list would be use-after-release on the second run. *)
let midnode_stream ~plr () =
  let engine = Leotp_sim.Engine.create () in
  let node = Leotp_net.Node.create ~name:"mid" in
  let (_ : Leotp.Midnode.t) = Leotp.Midnode.create engine ~config ~node () in
  let rng = Leotp_util.Rng.create ~seed:1 in
  let kept =
    List.filter
      (fun _ -> not (Leotp_util.Rng.bernoulli rng plr))
      (List.init 256 Fun.id)
  in
  fun () ->
    List.iter
      (fun i ->
        let pkt =
          Leotp.Wire.data_packet ~config ~src:99 ~dst:98 ~flow:7
            ~lo:(i * bench_mss)
            ~hi:((i + 1) * bench_mss)
            ~timestamp:0.0 ~req_owd:0.001 ~first_sent:0.0 ~retx:false
        in
        Leotp_net.Node.receive node ~from:1 pkt)
      kept

let cache_ops () =
  let cache = Leotp.Cache.create ~config () in
  fun () ->
    for i = 0 to 255 do
      Leotp.Cache.insert cache ~flow:1 ~lo:(i * 1400) ~hi:((i + 1) * 1400)
        ~first_sent:0.0 ~retx:false
    done;
    for i = 0 to 255 do
      ignore (Leotp.Cache.lookup cache ~flow:1 ~lo:(i * 1400) ~hi:((i + 1) * 1400))
    done

let fig19_tests =
  let open Bechamel in
  [
    Test.make ~name:"midnode/256pkt/plr=0" (Staged.stage (midnode_stream ~plr:0.0 ()));
    Test.make ~name:"midnode/256pkt/plr=1%" (Staged.stage (midnode_stream ~plr:0.01 ()));
    Test.make ~name:"midnode/256pkt/plr=5%" (Staged.stage (midnode_stream ~plr:0.05 ()));
    Test.make ~name:"cache/256 insert+lookup" (Staged.stage (cache_ops ()));
  ]

let fig19 () =
  print_endline "\n=== Fig 19: Midnode per-packet processing cost ===";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns_per_run ] ->
            Printf.printf "  %-26s %8.3f us/packet\n" name
              (ns_per_run /. 256.0 /. 1000.0)
          | _ -> Printf.printf "  %-26s <no estimate>\n" name)
        res)
    fig19_tests;
  print_endline
    "  (flat across PLR = the paper's Fig 19 claim: cost dominated by per-packet work)"

(* ------------------------------------------------------------------ *)
(* Path-trace experiment results, stashed so the BENCH_pathtrace.json
   perf record can carry the per-cell summary stats alongside the
   generic perf fields.  Cells run under Runner.map, so everything in
   this JSON — digests included — is identical for any --jobs N. *)

let pathtrace_cells : (Pathtrace.cell * Pathtrace.run_result) list ref =
  ref []

let pathtrace_cells_json cells =
  let cell_json ((c : Pathtrace.cell), (r : Pathtrace.run_result)) =
    Printf.sprintf
      "    {\"label\": \"%s\", \"horizon_s\": %.17g, \"isls\": %b, \"seed\": \
       %d, \"handovers\": %d, \"handover_rate_per_s\": %.17g, \"outages\": \
       %d, \"outage_fraction\": %.17g, \"mean_hops\": %.17g, \"switches\": \
       %d, \"goodput_mbps\": %.17g, \"owd_ms_mean\": %.17g, \"owd_ms_p99\": \
       %.17g, \"digest\": \"%s\"}"
      c.Pathtrace.label c.Pathtrace.spec.Pathtrace.horizon
      c.Pathtrace.spec.Pathtrace.isls c.Pathtrace.spec.Pathtrace.seed
      r.Pathtrace.handovers
      (if c.Pathtrace.spec.Pathtrace.horizon > 0.0 then
         float_of_int r.Pathtrace.handovers /. c.Pathtrace.spec.Pathtrace.horizon
       else 0.0)
      r.Pathtrace.outages r.Pathtrace.outage_fraction r.Pathtrace.mean_hops
      r.Pathtrace.switches r.Pathtrace.summary.Common.goodput_mbps
      (Leotp_util.Units.sec_to_ms (Stats.mean r.Pathtrace.summary.Common.owd))
      (Leotp_util.Units.sec_to_ms
         (Stats.percentile r.Pathtrace.summary.Common.owd 99.0))
      r.Pathtrace.digest
  in
  Printf.sprintf "  \"cells\": [\n%s\n  ]"
    (String.concat ",\n" (List.map cell_json cells))

let all_experiments =
  [
    ("fig2", fun ~quick -> ignore (E.fig02 ~quick ()));
    ("fig3", fun ~quick:_ -> ignore (E.fig03 ()));
    ("fig4", fun ~quick -> ignore (E.fig04 ~quick ()));
    ("fig5", fun ~quick -> ignore (E.fig05 ~quick ()));
    ("fig10", fun ~quick -> ignore (E.fig10 ~quick ()));
    ("fig11", fun ~quick -> ignore (E.fig11 ~quick ()));
    ("fig12", fun ~quick -> ignore (E.fig12 ~quick ()));
    ("fig13", fun ~quick -> ignore (E.fig13 ~quick ()));
    ("fig14", fun ~quick -> ignore (E.fig14 ~quick ()));
    ("fig15", fun ~quick -> ignore (E.fig15 ~quick ()));
    ("fig16", fun ~quick -> ignore (S.fig16 ~quick ()));
    ("fig17", fun ~quick -> ignore (S.fig17 ~quick ()));
    ("fig18", fun ~quick -> ignore (S.fig18 ~quick ()));
    ("table2", fun ~quick -> ignore (S.table2 ~quick ()));
    ("pathtrace", fun ~quick -> pathtrace_cells := Pathtrace.experiment ~quick ());
    ("fig19", fun ~quick:_ -> fig19 ());
  ]

(* ------------------------------------------------------------------ *)
(* Perf records: one BENCH_<id>.json per experiment run.                *)

type perf = {
  id : string;
  quick : bool;
  jobs : int;
  wall_s : float;
  cpu_s : float;
  jobs_run : int;
  sim_seconds : float;
  sim_per_wall : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  worker_alloc_bytes : float;
  packets_simulated : int;
  minor_words_per_packet : float;
}

let json_of_perf ?(extra = "") p =
  (* %.17g round-trips any float; no JSON library in the tree. *)
  Printf.sprintf
    "{\n\
    \  \"id\": \"%s\",\n\
    \  \"quick\": %b,\n\
    \  \"jobs\": %d,\n\
    \  \"wall_s\": %.6f,\n\
    \  \"cpu_s\": %.6f,\n\
    \  \"jobs_run\": %d,\n\
    \  \"sim_seconds\": %.3f,\n\
    \  \"sim_per_wall\": %.3f,\n\
    \  \"gc\": {\n\
    \    \"minor_words\": %.17g,\n\
    \    \"major_words\": %.17g,\n\
    \    \"promoted_words\": %.17g\n\
    \  },\n\
    \  \"worker_alloc_bytes\": %.17g,\n\
    \  \"packets_simulated\": %d,\n\
    \  \"minor_words_per_packet\": %.17g%s\n\
     }\n"
    p.id p.quick p.jobs p.wall_s p.cpu_s p.jobs_run p.sim_seconds
    p.sim_per_wall p.minor_words p.major_words p.promoted_words
    p.worker_alloc_bytes p.packets_simulated p.minor_words_per_packet
    (if extra = "" then "" else ",\n" ^ extra)

let write_perf ?extra ~out_dir p =
  let path = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" p.id) in
  let oc = open_out path in
  output_string oc (json_of_perf ?extra p);
  close_out oc;
  path

(* Run one experiment under full instrumentation.  GC minor/major words
   are the main domain's [Gc.quick_stat] deltas (allocation on worker
   domains is reported separately via [worker_alloc_bytes], which the
   runner sums per job on whichever domain ran it).  The per-packet
   metric is computed from the per-job deltas only — both the byte and
   the packet counters are read on whichever domain ran the job — so it
   is the same number under --jobs 1 and --jobs N and the perf gate can
   compare runs regardless of parallelism. *)
let run_instrumented ~quick ~out_dir (id, f) =
  Runner.reset_counters ();
  let g0 = Gc.quick_stat () in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  f ~quick;
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let c = Runner.counters () in
  let p =
    {
      id;
      quick;
      jobs = Runner.jobs ();
      wall_s = wall;
      cpu_s = cpu;
      jobs_run = c.Runner.jobs_run;
      sim_seconds = c.Runner.sim_seconds;
      sim_per_wall = (if wall > 0.0 then c.Runner.sim_seconds /. wall else 0.0);
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      worker_alloc_bytes = c.Runner.alloc_bytes;
      packets_simulated = c.Runner.packets;
      minor_words_per_packet =
        (if c.Runner.packets > 0 then
           c.Runner.alloc_bytes /. 8.0 /. float_of_int c.Runner.packets
         else 0.0);
    }
  in
  let extra =
    match (id, !pathtrace_cells) with
    | "pathtrace", (_ :: _ as cells) -> Some (pathtrace_cells_json cells)
    | _ -> None
  in
  let path = write_perf ?extra ~out_dir p in
  Printf.printf "  [%s done in %.1fs wall / %.1fs cpu, %d jobs, %.0f sim-s/wall-s -> %s]\n%!"
    id wall cpu c.Runner.jobs_run p.sim_per_wall path;
  p

(* Fixed quick subset for perf sanity checks: one pure-computation
   experiment, one simulation sweep that exercises the runner, the
   retransmission-latency figure whose per-packet allocation number the
   perf gate tracks, and the trace-driven path replay. *)
let perf_smoke_ids = [ "fig3"; "fig10"; "fig12"; "pathtrace" ]

(* ------------------------------------------------------------------ *)
(* Perf-regression gate: compare this run's per-packet allocation
   metric against the checked-in baselines (bench/baselines.json).
   The parser is deliberately minimal — the file is one flat JSON
   object of "key": number pairs (experiment ids plus "tolerance_pct"),
   re-baselined by copying minor_words_per_packet out of a trusted
   BENCH_<id>.json; see EXPERIMENTS.md. *)

let parse_baselines path =
  let ic = open_in path in
  let tolerance = ref 25.0 in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       (* A line of interest looks like:   "fig10": 249.4,   *)
       match String.index_opt line '"' with
       | None -> ()
       | Some q0 -> (
         match String.index_from_opt line (q0 + 1) '"' with
         | None -> ()
         | Some q1 -> (
           let key = String.sub line (q0 + 1) (q1 - q0 - 1) in
           match String.index_from_opt line q1 ':' with
           | None -> ()
           | Some c -> (
             let v =
               String.trim
                 (String.sub line (c + 1) (String.length line - c - 1))
             in
             let v =
               if v <> "" && v.[String.length v - 1] = ',' then
                 String.sub v 0 (String.length v - 1)
               else v
             in
             match float_of_string_opt v with
             | None -> ()
             | Some f ->
               if key = "tolerance_pct" then tolerance := f
               else entries := (key, f) :: !entries)))
     done
   with End_of_file -> close_in ic);
  (!tolerance, List.rev !entries)

let run_gate ~path perfs =
  let tolerance, baselines = parse_baselines path in
  Printf.printf "\n=== perf gate (%s, tolerance +%.0f%%) ===\n" path tolerance;
  let failures = ref [] in
  List.iter
    (fun p ->
      match List.assoc_opt p.id baselines with
      | None -> Printf.printf "  %-8s (no baseline; skipped)\n" p.id
      | Some base ->
        let limit = base *. (1.0 +. (tolerance /. 100.0)) in
        let delta =
          if base > 0.0 then
            (p.minor_words_per_packet -. base) /. base *. 100.0
          else 0.0
        in
        let ok = p.minor_words_per_packet <= limit in
        Printf.printf "  %-8s baseline=%10.1f measured=%10.1f (%+6.1f%%) %s\n"
          p.id base p.minor_words_per_packet delta
          (if ok then "OK" else "FAIL");
        if not ok then failures := (p, base) :: !failures)
    perfs;
  match List.rev !failures with
  | [] -> true
  | fs ->
    List.iter
      (fun (p, base) ->
        Printf.eprintf
          "perf gate: %s minor_words_per_packet regressed: measured %.1f \
           exceeds baseline %.1f by more than %.0f%% — if the growth is \
           intentional, re-baseline bench/baselines.json (see \
           EXPERIMENTS.md)\n"
          p.id p.minor_words_per_packet base tolerance)
      fs;
    false

(* ------------------------------------------------------------------ *)
(* Many-flow mode: an open-loop Workload over the live Walker
   constellation, run by the Fleet shard engine.  The headline metric is
   flow_sim_seconds_per_wall_second (total per-flow active simulated
   time per second of wall clock — the OpenSN-style scale number), gated
   against bench/baselines.json with its own tolerance band.  The
   combined trace digest printed here is the determinism witness: it must
   be identical under any --jobs N for a fixed --shards. *)

let manyflow_spec ~quick ~flows ~seed ~shards =
  let wl =
    {
      Workload.default with
      Workload.seed;
      horizon = (if quick then 30.0 else 60.0);
    }
  in
  let wl = Workload.scale_to wl ~flows in
  { Fleet.default with Fleet.workload = wl; shards }

let json_of_manyflow ~quick ~seed ~jobs ~wall (s : Fleet.stats) =
  Printf.sprintf
    "{\n\
    \  \"id\": \"manyflow\",\n\
    \  \"quick\": %b,\n\
    \  \"seed\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"shards\": %d,\n\
    \  \"wall_s\": %.6f,\n\
    \  \"flows_offered\": %d,\n\
    \  \"flows_started\": %d,\n\
    \  \"flows_completed\": %d,\n\
    \  \"flows_skipped\": %d,\n\
    \  \"bytes_delivered\": %d,\n\
    \  \"packets_simulated\": %d,\n\
    \  \"events\": %d,\n\
    \  \"peak_active\": %d,\n\
    \  \"sim_seconds\": %.3f,\n\
    \  \"flow_sim_seconds\": %.3f,\n\
    \  \"flow_sim_seconds_per_wall_second\": %.17g,\n\
    \  \"route_queries\": %d,\n\
    \  \"route_computes\": %d,\n\
    \  \"pool_live_delta\": %d,\n\
    \  \"pit_pending_end\": %d,\n\
    \  \"digest\": \"%s\",\n\
    \  \"invariants_ok\": %b\n\
     }\n"
    quick seed jobs (List.length s.Fleet.shards) wall s.Fleet.flows_offered
    s.Fleet.flows_started s.Fleet.flows_completed s.Fleet.flows_skipped
    s.Fleet.bytes_delivered s.Fleet.packets s.Fleet.events s.Fleet.peak_active
    s.Fleet.sim_seconds s.Fleet.flow_sim_seconds
    (if wall > 0.0 then s.Fleet.flow_sim_seconds /. wall else 0.0)
    s.Fleet.route_queries s.Fleet.route_computes s.Fleet.pool_live_delta
    s.Fleet.pit_pending_end s.Fleet.digest s.Fleet.invariants_ok

(* Higher is better for the throughput-style manyflow metric, so the
   gate direction is reversed from the allocation gate: fail when the
   measured rate falls below baseline * (1 - tolerance). *)
let gate_manyflow ~path ~wall (s : Fleet.stats) =
  let _, entries = parse_baselines path in
  match List.assoc_opt "manyflow_flow_sim_per_wall" entries with
  | None ->
    print_endline "  manyflow: no baseline in gate file; skipped";
    true
  | Some base ->
    let tol =
      match List.assoc_opt "manyflow_tolerance_pct" entries with
      | Some t -> t
      | None -> 60.0
    in
    let measured = if wall > 0.0 then s.Fleet.flow_sim_seconds /. wall else 0.0 in
    let floor = base *. (1.0 -. (tol /. 100.0)) in
    let ok = measured >= floor in
    Printf.printf
      "  manyflow flow_sim_s/wall_s baseline=%8.1f measured=%8.1f \
       (floor %.1f, -%.0f%%) %s\n"
      base measured floor tol
      (if ok then "OK" else "FAIL");
    if not ok then
      Printf.eprintf
        "perf gate: manyflow flow_sim_seconds_per_wall_second dropped below \
         %.1f (baseline %.1f - %.0f%%) — if the slowdown is intentional, \
         re-baseline bench/baselines.json (see EXPERIMENTS.md)\n"
        floor base tol;
    ok

let run_manyflow ~quick ~out_dir ~flows ~seed ~shards ~gate =
  let spec = manyflow_spec ~quick ~flows ~seed ~shards in
  Printf.printf
    "\n=== manyflow: ~%d flows, %d cities -> %d origins, %d shards, \
     horizon %.0fs (jobs=%d) ===\n%!"
    flows spec.Fleet.workload.Workload.cities
    spec.Fleet.workload.Workload.origins spec.Fleet.shards
    spec.Fleet.workload.Workload.horizon (Runner.jobs ());
  let wall0 = Unix.gettimeofday () in
  let s = Fleet.run spec in
  let wall = Unix.gettimeofday () -. wall0 in
  Printf.printf
    "  %d offered, %d started, %d completed, %d skipped (no route); peak \
     %d concurrent\n"
    s.Fleet.flows_offered s.Fleet.flows_started s.Fleet.flows_completed
    s.Fleet.flows_skipped s.Fleet.peak_active;
  Printf.printf
    "  %d packets, %d events in %.1fs wall; %.0f flow-sim-s (%.0f per \
     wall-s)\n"
    s.Fleet.packets s.Fleet.events wall s.Fleet.flow_sim_seconds
    (if wall > 0.0 then s.Fleet.flow_sim_seconds /. wall else 0.0);
  Printf.printf "  routes: %d queries -> %d computes (memo)\n"
    s.Fleet.route_queries s.Fleet.route_computes;
  Printf.printf "  pool live delta %d, pit pending %d\n" s.Fleet.pool_live_delta
    s.Fleet.pit_pending_end;
  List.iter
    (fun (r : Fleet.shard_stats) ->
      Printf.printf "  shard %d: %4d flows, digest %s%s\n" r.Fleet.shard
        r.Fleet.flows_started r.Fleet.digest
        (if Invariants.all_ok r.Fleet.reports then "" else "  INVARIANT FAIL"))
    s.Fleet.shards;
  Printf.printf "  combined digest %s, invariants %s\n" s.Fleet.digest
    (if s.Fleet.invariants_ok then "ok" else "FAILED");
  if not s.Fleet.invariants_ok then
    List.iter
      (fun (r : Fleet.shard_stats) ->
        if not (Invariants.all_ok r.Fleet.reports) then begin
          Printf.printf "  shard %d:\n" r.Fleet.shard;
          print_endline (Invariants.to_string r.Fleet.reports)
        end)
      s.Fleet.shards;
  let path = Filename.concat out_dir "BENCH_manyflow.json" in
  let oc = open_out path in
  output_string oc
    (json_of_manyflow ~quick ~seed ~jobs:(Runner.jobs ()) ~wall s);
  close_out oc;
  Printf.printf "  wrote %s\n%!" path;
  let gate_ok =
    match gate with Some p -> gate_manyflow ~path:p ~wall s | None -> true
  in
  s.Fleet.invariants_ok && gate_ok

(* ------------------------------------------------------------------ *)
(* Fault lab: one LEOTP bulk flow over a 4-hop chain under a fault
   schedule, with the packet trace recorded and the five protocol
   invariants checked.  The printed digest is the determinism witness:
   the same spec and seed must reproduce it exactly. *)

let parse_faults ~duration = function
  | None -> []
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ "random"; seed; n ] -> (
      match (int_of_string_opt seed, int_of_string_opt n) with
      | Some seed, Some n when n >= 1 ->
        Fault.random ~rng:(Leotp_util.Rng.create ~seed) ~duration ~n ()
      | _ ->
        Printf.eprintf "--faults random:SEED:N expects integers, got %S\n" spec;
        exit 1)
    | _ -> (
      match Fault.of_string spec with
      | Ok sched -> sched
      | Error msg ->
        Printf.eprintf "--faults: %s\n" msg;
        exit 1))

let run_fault_lab ~quick ~out_dir ~spec ~trace_wanted =
  let duration = if quick then 10.0 else 30.0 in
  let faults = parse_faults ~duration spec in
  (* A one-slot ring still digests every event; only keep records around
     when they are going to be exported. *)
  let trace = Trace.create ~capacity:(if trace_wanted then 1 lsl 18 else 1) () in
  let hops = Common.uniform_hops ~n:4 (Common.link ~bw:20.0 ~delay:0.01 ()) in
  print_endline "\n=== fault lab: LEOTP over 4x20 Mbps, 10 ms hops ===";
  if faults <> [] then
    Printf.printf "  schedule: %s\n" (Fault.to_string faults);
  let summary, reports =
    Common.run_faulted ~duration ~warmup:(0.1 *. duration) ~faults ~trace ~hops
      (Common.Leotp Leotp.Config.default)
  in
  Printf.printf "  goodput %.2f Mbps, %d retransmissions, %d congestion drops\n"
    summary.Common.goodput_mbps summary.Common.retransmissions
    summary.Common.congestion_drops;
  Printf.printf "  trace: %d events, digest %s\n" (Trace.count trace)
    (Trace.digest trace);
  if trace_wanted then begin
    let path = Filename.concat out_dir "TRACE_faultlab.jsonl" in
    let oc = open_out path in
    Trace.write_jsonl trace oc;
    close_out oc;
    Printf.printf "  wrote %d records to %s\n"
      (min (Trace.count trace) (1 lsl 18))
      path
  end;
  print_endline (Invariants.to_string reports);
  Invariants.all_ok reports

(* ------------------------------------------------------------------ *)
(* Path-trace mode: generate a TRACE_PATH timeline from the live
   constellation (and replay it in-memory), or replay a trace file.
   Both print the packet-trace digest; gen(live) and a replay of the
   written file must print the same digest — the bit-identical replay
   guarantee that bin/ci.sh checks. *)

let print_pathtrace_run ~tag (r : Pathtrace.run_result) =
  Printf.printf
    "  %s: tput=%5.2f Mbps  owd(avg)=%6.1fms  switches %d\n" tag
    r.Pathtrace.summary.Common.goodput_mbps
    (Leotp_util.Units.sec_to_ms (Stats.mean r.Pathtrace.summary.Common.owd))
    r.Pathtrace.switches;
  Printf.printf "  digest %s\n" r.Pathtrace.digest

let interp_of ~step = function
  | `Hold -> Leotp_net.Dynamic_path.Hold_last
  | `Linear -> Leotp_net.Dynamic_path.Linear { substep = step /. 4.0 }

let run_path_trace ~mode ~file ~pair ~isls ~horizon ~step ~route_epoch ~interp
    ~seed =
  match mode with
  | `Gen -> (
    let src, dst = pair in
    let spec = { Pathtrace.src; dst; isls; horizon; step; route_epoch; seed } in
    Printf.printf "\n=== path-trace gen: %s -> %s (%s) %.0fs @ %gs, seed %d ===\n%!"
      src dst
      (if isls then "isls" else "bent-pipe")
      horizon step seed;
    match Pathtrace.generate spec with
    | exception Not_found ->
      Printf.eprintf "--path-trace gen: unknown city in pair %S:%S\n" src dst;
      false
    | tr ->
      Path_trace.to_file tr file;
      Printf.printf
        "  wrote %d records to %s (handovers %d, outages %d, outage \
         fraction %.1f%%)\n"
        (List.length tr.Path_trace.records)
        file
        (Path_trace.handover_count tr)
        (List.length (Path_trace.outage_intervals tr))
        (100.0 *. Path_trace.outage_fraction tr);
      if Path_trace.route_count tr = 0 then begin
        Printf.printf "  no route records: skipping the live replay\n";
        true
      end
      else begin
        print_pathtrace_run ~tag:"live"
          (Pathtrace.run ~interp:(interp_of ~step interp) tr);
        true
      end)
  | `Replay -> (
    match Path_trace.of_file file with
    | Error msg ->
      Printf.eprintf "--path-trace replay: %s: %s\n" file msg;
      false
    | Ok tr ->
      let m = tr.Path_trace.meta in
      Printf.printf
        "\n=== path-trace replay: %s -> %s (%s) %.0fs @ %gs, seed %d ===\n%!"
        m.Path_trace.src m.Path_trace.dst
        (if m.Path_trace.isls then "isls" else "bent-pipe")
        m.Path_trace.horizon m.Path_trace.step m.Path_trace.seed;
      if Path_trace.route_count tr = 0 then begin
        Printf.eprintf "--path-trace replay: trace has no route records\n";
        false
      end
      else begin
        print_pathtrace_run ~tag:"replay"
          (Pathtrace.run
             ~interp:(interp_of ~step:m.Path_trace.step interp)
             tr);
        true
      end)

(* ------------------------------------------------------------------ *)
(* Fuzz mode: random scenarios through the differential oracle
   (Leotp_check) and invariant checker, failures shrunk to a replay
   spec.  Deterministic in --seed; cells parallelize under --jobs. *)

let print_failure (f : Fuzz.failure) =
  Printf.printf "  FAIL %-10s seed=%d  (%d shrink runs)\n" f.Fuzz.protocol
    f.Fuzz.spec.Fuzz.seed f.Fuzz.shrink_runs;
  List.iter (fun p -> Printf.printf "    %s\n" p) f.Fuzz.problems;
  Printf.printf "    replay: --fuzz-replay '%s'\n"
    (Fuzz.replay_to_string ~protocol:f.Fuzz.protocol f.Fuzz.spec)

let run_fuzz ~cases ~seed =
  Printf.printf
    "\n=== fuzz: %d cases x (leotp + 7 TCP variants), seed %d ===\n%!" cases
    seed;
  let wall0 = Unix.gettimeofday () in
  let out = Fuzz.run ~seed ~cases () in
  Printf.printf
    "  %d runs, %d ack events checked by the oracle, %d failure(s) in %.1fs\n"
    out.Fuzz.runs out.Fuzz.oracle_acks
    (List.length out.Fuzz.failures)
    (Unix.gettimeofday () -. wall0);
  List.iter print_failure out.Fuzz.failures;
  out.Fuzz.failures = []

let run_fuzz_replay spec =
  match Fuzz.replay spec with
  | Error e ->
    Printf.eprintf "--fuzz-replay: %s\n" e;
    exit 1
  | Ok (protocol, s, problems) ->
    Printf.printf "\n=== fuzz replay: %s, seed %d ===\n" protocol s.Fuzz.seed;
    if problems = [] then begin
      print_endline "  clean: no oracle divergence, no invariant failure";
      true
    end
    else begin
      List.iter (fun p -> Printf.printf "  %s\n" p) problems;
      false
    end

let usage () =
  Printf.eprintf
    "usage: main.exe [--quick] [--jobs N] [--out-dir DIR] [--perf-smoke]\n\
    \       [--check] [--faults SPEC] [--trace] [--fuzz N] [--seed S]\n\
    \       [--fuzz-replay SPEC] [--manyflow N] [--shards K]\n\
    \       [--path-trace gen|replay] [--trace-file PATH] [--pair SRC:DST]\n\
    \       [--bent-pipe] [--horizon S] [--step S] [--route-epoch S]\n\
    \       [--interp hold|linear] [EXPERIMENT...]\n\
     known experiments: %s\n\
     --check        attach the invariant checker to every scenario (fail on violation)\n\
     --faults SPEC  run the fault lab; SPEC = '<t>@<verb>:<target>[=args];...' or random:SEED:N\n\
     --trace        run the fault lab and export its packet trace as JSONL\n\
     --fuzz N       run N random scenarios through the protocol oracle (exit 1 on divergence)\n\
     --seed S       root seed for --fuzz / --manyflow (default 7)\n\
     --manyflow N   run ~N open-loop flows over the live constellation\n\
    \                (writes BENCH_manyflow.json; exit 1 on invariant failure)\n\
     --shards K     fixed shard count for --manyflow (default 8; digests\n\
    \                depend on K but never on --jobs)\n\
     --fuzz-replay SPEC  re-run one spec printed by a failing --fuzz\n\
     --path-trace gen     sample the constellation into --trace-file\n\
    \                (TRACE_PATH jsonl), then replay it live and print the digest\n\
     --path-trace replay  replay an existing --trace-file and print the digest\n\
    \                (gen/replay digests must match; --seed seeds the generator)\n\
     --pair SRC:DST  city pair for --path-trace gen (default Beijing:New York)\n\
     --bent-pipe     disable ISLs for --path-trace gen (single-satellite relay)\n\
     --horizon S / --step S / --route-epoch S  gen horizon, sample step,\n\
    \                routing recompute quantum (defaults 3600 / 1 / 5)\n\
     --interp hold|linear  replay interpolation policy (default hold-last)\n\
     --gate FILE    after the experiments, compare minor_words_per_packet\n\
                    against FILE's baselines; exit 1 on regression\n"
    (String.concat ", " (List.map fst all_experiments));
  exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = ref false in
  let jobs = ref 1 in
  let out_dir = ref "." in
  let perf_smoke = ref false in
  let check = ref false in
  let faults_spec = ref None in
  let trace_flag = ref false in
  let fuzz_cases = ref None in
  let fuzz_seed = ref 7 in
  let fuzz_replay = ref None in
  let gate = ref None in
  let manyflow = ref None in
  let shards = ref 8 in
  let pt_mode = ref None in
  let pt_file = ref "TRACE_path.jsonl" in
  let pt_pair = ref (Pathtrace.default.Pathtrace.src, Pathtrace.default.Pathtrace.dst) in
  let pt_isls = ref true in
  let pt_horizon = ref Pathtrace.default.Pathtrace.horizon in
  let pt_step = ref Pathtrace.default.Pathtrace.step in
  let pt_epoch = ref Pathtrace.default.Pathtrace.route_epoch in
  let pt_interp = ref `Hold in
  let selected = ref [] in
  let positive_float flag s k =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> k v
    | _ ->
      Printf.eprintf "%s expects a positive number, got %S\n" flag s;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--check" :: rest ->
      check := true;
      parse rest
    | "--faults" :: spec :: rest ->
      faults_spec := Some spec;
      parse rest
    | "--trace" :: rest ->
      trace_flag := true;
      parse rest
    | "--perf-smoke" :: rest ->
      perf_smoke := true;
      parse rest
    | "--fuzz" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        fuzz_cases := Some n;
        parse rest
      | _ ->
        Printf.eprintf "--fuzz expects a positive integer, got %S\n" n;
        usage ())
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some s ->
        fuzz_seed := s;
        parse rest
      | _ ->
        Printf.eprintf "--seed expects an integer, got %S\n" s;
        usage ())
    | "--fuzz-replay" :: spec :: rest ->
      fuzz_replay := Some spec;
      parse rest
    | "--path-trace" :: mode :: rest -> (
      match mode with
      | "gen" ->
        pt_mode := Some `Gen;
        parse rest
      | "replay" ->
        pt_mode := Some `Replay;
        parse rest
      | _ ->
        Printf.eprintf "--path-trace expects 'gen' or 'replay', got %S\n" mode;
        usage ())
    | "--trace-file" :: path :: rest ->
      pt_file := path;
      parse rest
    | "--pair" :: pair :: rest -> (
      match String.index_opt pair ':' with
      | Some i when i > 0 && i < String.length pair - 1 ->
        pt_pair :=
          ( String.sub pair 0 i,
            String.sub pair (i + 1) (String.length pair - i - 1) );
        parse rest
      | _ ->
        Printf.eprintf "--pair expects \"SRC:DST\", got %S\n" pair;
        usage ())
    | "--bent-pipe" :: rest ->
      pt_isls := false;
      parse rest
    | "--horizon" :: s :: rest ->
      positive_float "--horizon" s (fun v ->
          pt_horizon := v;
          parse rest)
    | "--step" :: s :: rest ->
      positive_float "--step" s (fun v ->
          pt_step := v;
          parse rest)
    | "--route-epoch" :: s :: rest ->
      positive_float "--route-epoch" s (fun v ->
          pt_epoch := v;
          parse rest)
    | "--interp" :: policy :: rest -> (
      match policy with
      | "hold" ->
        pt_interp := `Hold;
        parse rest
      | "linear" ->
        pt_interp := `Linear;
        parse rest
      | _ ->
        Printf.eprintf "--interp expects 'hold' or 'linear', got %S\n" policy;
        usage ())
    | "--manyflow" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        manyflow := Some n;
        parse rest
      | _ ->
        Printf.eprintf "--manyflow expects a positive integer, got %S\n" n;
        usage ())
    | "--shards" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        shards := n;
        parse rest
      | _ ->
        Printf.eprintf "--shards expects a positive integer, got %S\n" n;
        usage ())
    | "--gate" :: path :: rest ->
      if not (Sys.file_exists path) then begin
        Printf.eprintf "--gate %S does not exist\n" path;
        usage ()
      end;
      gate := Some path;
      parse rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        parse rest
      | _ ->
        Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
        usage ())
    | "--out-dir" :: dir :: rest ->
      (* Fail before the experiments run, not at the first write. *)
      if not (Sys.file_exists dir && Sys.is_directory dir) then begin
        Printf.eprintf "--out-dir %S is not an existing directory\n" dir;
        usage ()
      end;
      out_dir := dir;
      parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "unknown option %S\n" arg;
      usage ()
    | name :: rest ->
      if List.mem_assoc name all_experiments then begin
        selected := name :: !selected;
        parse rest
      end
      else begin
        Printf.eprintf "unknown experiment %S\n" name;
        usage ()
      end
  in
  parse args;
  if !perf_smoke then quick := true;
  Runner.set_jobs !jobs;
  if !check then Atomic.set Invariants.self_check true;
  (match !fuzz_replay with
  | Some spec -> exit (if run_fuzz_replay spec then 0 else 1)
  | None -> ());
  (match !fuzz_cases with
  | Some cases ->
    let ok = run_fuzz ~cases ~seed:!fuzz_seed in
    if not ok then exit 1;
    (* Like the fault lab, --fuzz replaces the experiment sweep unless
       experiments were selected alongside it. *)
    if !selected = [] && !faults_spec = None && not !trace_flag then exit 0
  | None -> ());
  (match !manyflow with
  | Some flows ->
    let ok =
      run_manyflow ~quick:!quick ~out_dir:!out_dir ~flows ~seed:!fuzz_seed
        ~shards:!shards ~gate:!gate
    in
    if not ok then exit 1;
    (* Like --fuzz, --manyflow replaces the experiment sweep unless
       experiments were selected alongside it. *)
    if !selected = [] && !faults_spec = None && not !trace_flag then exit 0
  | None -> ());
  if !faults_spec <> None || !trace_flag then begin
    let ok =
      run_fault_lab ~quick:!quick ~out_dir:!out_dir ~spec:!faults_spec
        ~trace_wanted:!trace_flag
    in
    if not ok then exit 1;
    (* The fault lab replaces the experiment sweep unless some were
       explicitly selected alongside it. *)
    if !selected = [] then exit 0
  end;
  (match !pt_mode with
  | Some mode ->
    let src, dst = !pt_pair in
    let ok =
      run_path_trace ~mode ~file:!pt_file ~pair:(src, dst) ~isls:!pt_isls
        ~horizon:!pt_horizon ~step:!pt_step ~route_epoch:!pt_epoch
        ~interp:!pt_interp ~seed:!fuzz_seed
    in
    if not ok then exit 1;
    (* Like the fault lab, --path-trace replaces the experiment sweep
       unless some were explicitly selected alongside it. *)
    if !selected = [] then exit 0
  | None -> ());
  let to_run =
    if !perf_smoke then
      List.filter (fun (id, _) -> List.mem id perf_smoke_ids) all_experiments
    else
      match List.rev !selected with
      | [] -> all_experiments
      | names ->
        List.map (fun name -> (name, List.assoc name all_experiments)) names
  in
  Printf.printf "LEOTP reproduction benchmarks%s (jobs=%d)\n"
    (if !quick then " (quick mode)" else "")
    !jobs;
  let perfs =
    List.map (run_instrumented ~quick:!quick ~out_dir:!out_dir) to_run
  in
  if !perf_smoke then begin
    print_endline "\n=== perf smoke summary ===";
    List.iter (fun p -> print_string (json_of_perf p)) perfs
  end;
  match !gate with
  | Some path -> if not (run_gate ~path perfs) then exit 1
  | None -> ()
