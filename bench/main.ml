(* The LEOTP harness: one command-line tool with a subcommand per mode.

   Usage (each subcommand has --help):
     dune exec bench/main.exe -- fig [--quick] [--jobs N] [ID...]
     dune exec bench/main.exe -- manyflow N | pathtrace gen|replay
     dune exec bench/main.exe -- faults [SPEC] | fuzz N | fuzz-replay SPEC
     dune exec bench/main.exe -- sim path|starlink|fairness|ablation|route

   --jobs N runs each experiment's independent simulation cells on N
   worker domains; results are bit-identical to --jobs 1 (each cell owns
   its engine/rng/topology and domain-local id counters).

   Every fig and manyflow run writes a machine-readable perf record
   BENCH_<id>.json (to --out-dir DIR, default '.') so the perf
   trajectory can be tracked across commits, and --gate FILE checks the
   records against FILE's baselines (bench/baselines.json); see
   EXPERIMENTS.md for both schemas.

   Absolute numbers are not expected to match the authors' testbed; the
   qualitative shape (who wins, by roughly what factor, where crossovers
   fall) is the reproduction target.  See EXPERIMENTS.md for the
   paper-vs-measured record. *)

open Cmdliner
module E = Leotp_scenario.Experiments
module S = Leotp_scenario.Starlink
module Runner = Leotp_scenario.Runner
module Common = Leotp_scenario.Common
module Invariants = Leotp_scenario.Invariants
module Report = Leotp_scenario.Report
module Fault = Leotp_sim.Fault
module Trace = Leotp_net.Trace
module Fuzz = Leotp_scenario.Fuzz
module Fleet = Leotp_scenario.Fleet
module Workload = Leotp_scenario.Workload
module Pathtrace = Leotp_scenario.Pathtrace
module Path_trace = Leotp_net.Path_trace
module Path_service = Leotp_constellation.Path_service
module Cursor = Leotp_util.Cursor
module Stats = Leotp_util.Stats
module Units = Leotp_util.Units

(* ------------------------------------------------------------------ *)
(* Fig 19: Midnode CPU overhead, as per-packet processing cost          *)
(* (fixed-count timing loops; flat-in-PLR is the paper's claim).        *)

let config = Leotp.Config.default
let bench_mss = config.Leotp.Config.mss

(* Each pass streams the flow's next 256 data packets through one
   Midnode, with [plr] of them missing at the same offsets every pass
   (SHR hole tracking, VPHs and SHR Interests), then runs the engine
   until the sending buffer has drained them all: cache insert, SHR,
   hop congestion control and the paced, restamping drain, per packet.
   Nothing routes out of the node, so every packet it sends dies as a
   no-route drop.  The packets are pool-acquired per pass because every
   sink recycles them. *)
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
  let pass = ref 0 in
  fun () ->
    let now = Leotp_sim.Engine.now engine in
    let base = !pass * 256 in
    incr pass;
    List.iter
      (fun i ->
        let pkt =
          Leotp.Wire.data_packet ~config ~src:99 ~dst:98 ~flow:7
            ~lo:((base + i) * bench_mss)
            ~hi:((base + i + 1) * bench_mss)
            ~timestamp:now ~req_owd:0.001 ~first_sent:now ~retx:false
        in
        Leotp_net.Node.receive node pkt)
      kept;
    Leotp_sim.Engine.run engine

let cache_ops () =
  let cache = Leotp.Cache.create ~config () in
  (* One Data record for the kernel's life, re-ranged per insert: the
     cache reads its slots (first sent at 0, not a retransmission).  It
     never enters the pool, so nothing downstream releases it. *)
  let data = (Leotp_net.Packet.blank [@leotp.allow "hot-path-alloc"]) () in
  data.Leotp_net.Packet.flow <- 1;
  fun () ->
    for i = 0 to 255 do
      data.Leotp_net.Packet.i0 <- i * 1400;
      data.Leotp_net.Packet.i1 <- (i + 1) * 1400;
      Leotp.Cache.insert cache data
    done;
    for i = 0 to 255 do
      ignore (Leotp.Cache.lookup cache ~flow:1 ~lo:(i * 1400) ~hi:((i + 1) * 1400))
    done

let fig19_tests =
  (* The [g/] prefix keeps the kernel names earlier runs printed. *)
  [ ("g/midnode/256pkt/plr=0", midnode_stream ~plr:0.0 ());
    ("g/midnode/256pkt/plr=1%", midnode_stream ~plr:0.01 ());
    ("g/midnode/256pkt/plr=5%", midnode_stream ~plr:0.05 ());
    ("g/cache/256 insert+lookup", cache_ops ()) ]

(* Each kernel runs once untimed, then a fixed number of times under the
   harness clock: a count, not a time quota, so the run's allocation
   (the record's gc fields) is the same on every host. *)
let fig19_iterations = 1000

let fig19 () =
  print_endline "\n=== Fig 19: Midnode per-packet processing cost ===";
  List.iter
    (fun (name, kernel) ->
      kernel ();
      let t0 = Unix.gettimeofday () in
      for _ = 1 to fig19_iterations do
        kernel ()
      done;
      Printf.printf "  %-26s %8.3f us/packet\n" name
        ((Unix.gettimeofday () -. t0) *. 1e6
        /. float_of_int (fig19_iterations * 256)))
    fig19_tests;
  print_endline
    "  (flat across PLR = the paper's Fig 19 claim: cost dominated by per-packet work)"

(* ------------------------------------------------------------------ *)
(* Perf records.  A run is one field list: [write_record] prints it as
   BENCH_<id>.json and the gate reads its gated field back by name.
   Floats print "%.17g" (round-trips) unless a field fixes its decimals;
   there is no JSON library in the tree. *)

type value =
  | Bool of bool
  | Int of int
  | Num of float
  | Fixed of int * float  (** decimals, value *)
  | Str of string
  | Obj of (string * value) list
  | Arr of value list  (** one element per line *)

(* [indent] is the column of the value's line; [None] renders it inline. *)
let rec render ~indent v =
  let seq opening closing items =
    match indent with
    | None -> opening ^ String.concat ", " items ^ closing
    | Some n ->
      let pad = String.make n ' ' in
      Printf.sprintf "%s\n%s  %s\n%s%s" opening pad
        (String.concat (",\n  " ^ pad) items)
        pad closing
  in
  let quote s = Printf.sprintf "\"%s\"" (Cursor.escape s) in
  match v with
  | Bool x -> string_of_bool x
  | Int i -> string_of_int i
  | Num f -> Printf.sprintf "%.17g" f
  | Fixed (d, f) -> Printf.sprintf "%.*f" d f
  | Str s -> quote s
  | Obj fields ->
    let inner = Option.map (fun n -> n + 2) indent in
    seq "{" "}" (List.map (fun (k, v) -> quote k ^ ": " ^ render ~indent:inner v) fields)
  | Arr vs -> seq "[" "]" (List.map (render ~indent:None) vs)

let write_record ~out_dir id fields =
  let path = Filename.concat out_dir (Printf.sprintf "BENCH_%s.json" id) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (render ~indent:(Some 0) (Obj fields) ^ "\n"));
  path

(* ------------------------------------------------------------------ *)
(* Perf gate.  bench/baselines.json is a JSON array with one entry per
   line, read by the strict line cursor before anything runs:
     [
     {"id":"fig10","field":"minor_words_per_packet","better":"lower","baseline":246.1,"tolerance_pct":25},
     ...
     ]
   Every entry but the last ends with a comma.  Any other line is an
   error, so the gate cannot pass by skipping what it cannot read. *)

type baseline = {
  id : string;
  field : string;
  higher : bool;  (** higher is better: the band is a floor *)
  base : float;
  tolerance_pct : float;
}

let parse_baseline ~lineno ~last line =
  let cur = Cursor.create ~lineno line in
  let next ?(sep = ",") name read =
    Cursor.key cur name;
    let v = read cur ~what:name in
    Cursor.expect cur sep;
    v
  in
  Cursor.expect cur "{";
  let id = next "id" Cursor.quoted in
  let field = next "field" Cursor.quoted in
  let higher =
    match next "better" Cursor.quoted with
    | "lower" -> false
    | "higher" -> true
    | other ->
      Cursor.fail cur "\"better\" must be \"lower\" or \"higher\", not %S" other
  in
  let base = next "baseline" Cursor.number in
  let tolerance_pct = next ~sep:"}" "tolerance_pct" Cursor.number in
  if base <= 0.0 then Cursor.fail cur "\"baseline\" must be positive";
  if tolerance_pct < 0.0 || (higher && tolerance_pct >= 100.0) then
    Cursor.fail cur "\"tolerance_pct\" must be non-negative (below 100 for a floor)";
  if not last then Cursor.expect cur ",";
  Cursor.eol cur;
  { id; field; higher; base; tolerance_pct }

let read_baselines path =
  let rec entries lineno acc = function
    | [ "]" ] when acc <> [] -> List.rev acc
    | [] | [ "]" ] ->
      Cursor.fail_line lineno "expected an entry, then ] alone on the last line"
    | line :: rest ->
      let b = parse_baseline ~lineno ~last:(rest = [ "]" ]) line in
      if List.exists (fun a -> a.id = b.id && a.field = b.field) acc then
        Cursor.fail_line lineno "duplicate entry for %s %s" b.id b.field;
      entries (lineno + 1) (b :: acc) rest
  in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
    Cursor.protect (fun () ->
        match Cursor.lines text with
        | "[" :: rest -> (path, entries 2 [] rest)
        | _ -> Cursor.fail_line 1 "expected [ alone on the first line")
    |> Result.map_error (Printf.sprintf "%s: %s" path)

let gate_entry fields b =
  let bound, op, sign =
    if b.higher then (b.base *. (1.0 -. (b.tolerance_pct /. 100.0)), ">=", "-")
    else (b.base *. (1.0 +. (b.tolerance_pct /. 100.0)), "<=", "+")
  in
  let limit =
    Printf.sprintf "%s %s %.1f (baseline %.1f %s%.0f%%)" b.field op bound b.base
      sign b.tolerance_pct
  in
  let number = function
    | Some (Int i) -> Some (float_of_int i)
    | Some (Num f | Fixed (_, f)) -> Some f
    | _ -> None
  in
  match number (List.assoc_opt b.field fields) with
  | Some measured ->
    let ok = if b.higher then measured >= bound else measured <= bound in
    Printf.printf "  %-8s %s: measured %.1f (%+.1f%%) %s\n" b.id limit measured
      ((measured -. b.base) /. b.base *. 100.0)
      (if ok then "OK" else "FAIL");
    if not ok then
      Printf.eprintf
        "perf gate: %s %s = %.1f is outside %s — if the change is \
         intentional, re-baseline the gate file (see EXPERIMENTS.md)\n"
        b.id b.field measured limit;
    ok
  | None ->
    Printf.printf "  %-8s %s: no such numeric field in the record FAIL\n" b.id limit;
    Printf.eprintf "perf gate: %s has no numeric field %S\n" b.id b.field;
    false

(* Records with no entry are reported and skipped; entries with no record
   in this run (the manyflow floor during a fig run) are ignored. *)
let gate g records =
  match g with
  | None -> true
  | Some (path, baselines) ->
    Printf.printf "\n=== perf gate (%s) ===\n" path;
    List.fold_left
      (fun ok (id, fields) ->
        match List.filter (fun b -> b.id = id) baselines with
        | [] ->
          Printf.printf "  %-8s (no baseline; skipped)\n" id;
          ok
        | bs -> List.fold_left (fun ok b -> gate_entry fields b && ok) ok bs)
      true records

(* ------------------------------------------------------------------ *)
(* Figures: each experiment returns the extra fields of its record.
   pathtrace's per-cell summaries come from cells run under Runner.map,
   so everything in them — digests included — is identical for any
   --jobs N. *)

let pathtrace_cell ((c : Pathtrace.cell), (r : Pathtrace.run_result)) =
  let spec = c.Pathtrace.spec and s = r.Pathtrace.summary in
  let horizon = spec.Pathtrace.horizon and handovers = r.Pathtrace.handovers in
  Obj
    [ ("label", Str c.Pathtrace.label); ("horizon_s", Num horizon);
      ("isls", Bool spec.Pathtrace.isls); ("seed", Int spec.Pathtrace.seed);
      ("handovers", Int handovers);
      ( "handover_rate_per_s",
        Num (if horizon > 0.0 then float_of_int handovers /. horizon else 0.0) );
      ("outages", Int r.Pathtrace.outages);
      ("outage_fraction", Num r.Pathtrace.outage_fraction);
      ("mean_hops", Num r.Pathtrace.mean_hops);
      ("switches", Int r.Pathtrace.switches);
      ("goodput_mbps", Num s.Common.goodput_mbps);
      ("owd_ms_mean", Num (Units.sec_to_ms (Stats.mean s.Common.owd)));
      ("owd_ms_p99", Num (Units.sec_to_ms (Stats.percentile s.Common.owd 99.0)));
      ("digest", Str r.Pathtrace.digest) ]

let all_experiments =
  let plain (f : ?quick:bool -> unit -> _) ~quick = ignore (f ~quick ()); [] in
  [ ("fig2", plain E.fig02);
    ("fig3", fun ~quick:_ -> ignore (E.fig03 ()); []);
    ("fig4", plain E.fig04); ("fig5", plain E.fig05);
    ("fig10", plain E.fig10); ("fig11", plain E.fig11);
    ("fig12", plain E.fig12); ("fig13", plain E.fig13);
    ("fig14", plain E.fig14); ("fig15", plain E.fig15);
    ("fig16", plain S.fig16); ("fig17", plain S.fig17);
    ("fig18", plain S.fig18); ("table2", plain S.table2);
    ( "pathtrace",
      fun ~quick ->
        [ ("cells", Arr (List.map pathtrace_cell (Pathtrace.experiment ~quick ()))) ] );
    ("fig19", fun ~quick:_ -> fig19 (); []) ]

(* Minor words per packet over the jobs [Runner] ran since its counters
   were reset (see [run_instrumented]). *)
let words_per_packet (c : Runner.counters) =
  if c.Runner.packets > 0 then
    c.Runner.alloc_bytes /. 8.0 /. float_of_int c.Runner.packets
  else 0.0

(* Run one experiment under full instrumentation.  GC minor/major words
   are the main domain's [Gc.quick_stat] deltas (allocation on worker
   domains is reported separately via [worker_alloc_bytes], which the
   runner sums per job on whichever domain ran it).  The per-packet
   metric is computed from the per-job deltas only — both the byte and
   the packet counters are read on whichever domain ran the job — so it
   is the same number under --jobs 1 and --jobs N and the perf gate can
   compare runs regardless of parallelism. *)
let run_instrumented ~quick ~out_dir id =
  let f = List.assoc id all_experiments in
  Runner.reset_counters ();
  let g0 = Gc.quick_stat () in
  let wall0 = Unix.gettimeofday () in
  let cpu0 = Sys.time () in
  let extra = f ~quick in
  let wall = Unix.gettimeofday () -. wall0 in
  let cpu = Sys.time () -. cpu0 in
  let g1 = Gc.quick_stat () in
  let c = Runner.counters () in
  let sim_per_wall = if wall > 0.0 then c.Runner.sim_seconds /. wall else 0.0 in
  let gc name stat = (name, Num (stat g1 -. stat g0)) in
  let fields =
    [ ("id", Str id); ("quick", Bool quick); ("jobs", Int (Runner.jobs ()));
      ("wall_s", Fixed (6, wall)); ("cpu_s", Fixed (6, cpu));
      ("jobs_run", Int c.Runner.jobs_run);
      ("sim_seconds", Fixed (3, c.Runner.sim_seconds));
      ("sim_per_wall", Fixed (3, sim_per_wall));
      ( "gc",
        Obj
          [ gc "minor_words" (fun g -> g.Gc.minor_words);
            gc "major_words" (fun g -> g.Gc.major_words);
            gc "promoted_words" (fun g -> g.Gc.promoted_words) ] );
      ("worker_alloc_bytes", Num c.Runner.alloc_bytes);
      ("packets_simulated", Int c.Runner.packets);
      ("minor_words_per_packet", Num (words_per_packet c)) ]
    @ extra
  in
  let path = write_record ~out_dir id fields in
  Printf.printf "  [%s done in %.1fs wall / %.1fs cpu, %d jobs, %.0f sim-s/wall-s -> %s]\n%!"
    id wall cpu c.Runner.jobs_run sim_per_wall path;
  (id, fields)

let run_figs ~quick ~out_dir ~gate:g ids =
  Printf.printf "LEOTP reproduction benchmarks%s (jobs=%d)\n"
    (if quick then " (quick mode)" else "")
    (Runner.jobs ());
  let ids = if ids = [] then List.map fst all_experiments else ids in
  gate g (List.map (run_instrumented ~quick ~out_dir) ids)

(* ------------------------------------------------------------------ *)
(* Many-flow mode: an open-loop Workload over the live Walker
   constellation, run by the Fleet shard engine.  The headline metric is
   flow_sim_seconds_per_wall_second (total per-flow active simulated
   time per second of wall clock — the OpenSN-style scale number).  The
   combined trace digest printed here is the determinism witness: it must
   be identical under any --jobs N for a fixed --shards. *)

let run_manyflow ~quick ~out_dir ~flows ~seed ~shards ~gate:g =
  let wl =
    { Workload.default with Workload.seed; horizon = (if quick then 30.0 else 60.0) }
  in
  let spec =
    { Fleet.default with Fleet.workload = Workload.scale_to wl ~flows; shards }
  in
  Printf.printf
    "\n=== manyflow: ~%d flows, %d cities -> %d origins, %d shards, \
     horizon %.0fs (jobs=%d) ===\n%!"
    flows spec.Fleet.workload.Workload.cities
    spec.Fleet.workload.Workload.origins spec.Fleet.shards
    spec.Fleet.workload.Workload.horizon (Runner.jobs ());
  Runner.reset_counters ();
  let wall0 = Unix.gettimeofday () in
  let s = Fleet.run spec in
  let wall = Unix.gettimeofday () -. wall0 in
  let c = Runner.counters () in
  let per_wall = if wall > 0.0 then s.Fleet.flow_sim_seconds /. wall else 0.0 in
  Printf.printf
    "  %d offered, %d started, %d completed, %d skipped (no route); peak \
     %d concurrent\n"
    s.Fleet.flows_offered s.Fleet.flows_started s.Fleet.flows_completed
    s.Fleet.flows_skipped s.Fleet.peak_active;
  Printf.printf
    "  %d packets, %d events in %.1fs wall; %.0f flow-sim-s (%.0f per \
     wall-s)\n"
    s.Fleet.packets s.Fleet.events wall s.Fleet.flow_sim_seconds per_wall;
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
  let fields =
    [ ("id", Str "manyflow"); ("quick", Bool quick); ("seed", Int seed);
      ("jobs", Int (Runner.jobs ())); ("shards", Int (List.length s.Fleet.shards));
      ("wall_s", Fixed (6, wall)); ("flows_offered", Int s.Fleet.flows_offered);
      ("flows_started", Int s.Fleet.flows_started);
      ("flows_completed", Int s.Fleet.flows_completed);
      ("flows_skipped", Int s.Fleet.flows_skipped);
      ("bytes_delivered", Int s.Fleet.bytes_delivered);
      ("packets_simulated", Int s.Fleet.packets); ("events", Int s.Fleet.events);
      ("peak_active", Int s.Fleet.peak_active);
      ("sim_seconds", Fixed (3, s.Fleet.sim_seconds));
      ("flow_sim_seconds", Fixed (3, s.Fleet.flow_sim_seconds));
      ("flow_sim_seconds_per_wall_second", Num per_wall);
      ("minor_words_per_packet", Num (words_per_packet c));
      ("route_queries", Int s.Fleet.route_queries);
      ("route_computes", Int s.Fleet.route_computes);
      ("pool_live_delta", Int s.Fleet.pool_live_delta);
      ("pit_pending_end", Int s.Fleet.pit_pending_end);
      ("digest", Str s.Fleet.digest); ("invariants_ok", Bool s.Fleet.invariants_ok) ]
  in
  Printf.printf "  wrote %s\n%!" (write_record ~out_dir "manyflow" fields);
  gate g [ ("manyflow", fields) ] && s.Fleet.invariants_ok

(* ------------------------------------------------------------------ *)
(* Fault lab: one LEOTP bulk flow over a 4-hop chain under a fault
   schedule, with the packet trace recorded and the five protocol
   invariants checked.  The printed digest is the determinism witness:
   the same spec and seed must reproduce it exactly. *)

let run_fault_lab ~quick ~out_dir ~trace_wanted spec =
  let duration = if quick then 10.0 else 30.0 in
  let faults =
    match spec with
    | None -> []
    | Some (`Schedule s) -> s
    | Some (`Random (seed, n)) ->
      Fault.random ~rng:(Leotp_util.Rng.create ~seed) ~duration ~n ()
  in
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
    Out_channel.with_open_bin path (Trace.write_jsonl trace);
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
   guarantee that test/witness.t pins. *)

let print_pathtrace_run ~tag tr =
  let r = Pathtrace.run tr in
  Printf.printf
    "  %s: tput=%5.2f Mbps  owd(avg)=%6.1fms  switches %d\n" tag
    r.Pathtrace.summary.Common.goodput_mbps
    (Units.sec_to_ms (Stats.mean r.Pathtrace.summary.Common.owd))
    r.Pathtrace.switches;
  Printf.printf "  digest %s\n" r.Pathtrace.digest

let print_pathtrace_header mode (m : Path_trace.meta) =
  Printf.printf "\n=== path-trace %s: %s -> %s (%s) %.0fs @ %gs, seed %d ===\n%!"
    mode m.Path_trace.src m.Path_trace.dst
    (if m.Path_trace.isls then "isls" else "bent-pipe")
    m.Path_trace.horizon m.Path_trace.step m.Path_trace.seed

let run_gen ~file ~src ~dst ~isls ~horizon ~step ~route_epoch ~seed =
  print_pathtrace_header "gen" { Path_trace.src; dst; isls; horizon; step; seed };
  let tr =
    Pathtrace.generate { Pathtrace.src; dst; isls; horizon; step; route_epoch; seed }
  in
  match Path_trace.to_file tr file with
  | exception Sys_error m ->
    prerr_endline ("pathtrace gen: " ^ m);
    false
  | () ->
    Printf.printf
      "  wrote %d records to %s (handovers %d, outages %d, outage fraction \
       %.1f%%)\n"
      (List.length tr.Path_trace.records)
      file
      (Path_trace.handover_count tr)
      (List.length (Path_trace.outage_intervals tr))
      (100.0 *. Path_trace.outage_fraction tr);
    if Path_trace.route_count tr = 0 then
      Printf.printf "  no route records: skipping the live replay\n"
    else print_pathtrace_run ~tag:"live" tr;
    true

let run_replay ~file =
  match Path_trace.of_file file with
  | Error msg ->
    prerr_endline ("pathtrace replay: " ^ msg);
    false
  | Ok tr ->
    print_pathtrace_header "replay" tr.Path_trace.meta;
    let ok = Path_trace.route_count tr > 0 in
    if ok then print_pathtrace_run ~tag:"replay" tr
    else Printf.eprintf "pathtrace replay: trace has no route records\n";
    ok

(* ------------------------------------------------------------------ *)
(* Fuzz mode: random scenarios through the differential oracle
   (Leotp_check) and invariant checker, failures shrunk to a replay
   spec.  Deterministic in --seed; cells parallelize under --jobs. *)

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
  List.iter
    (fun (f : Fuzz.failure) ->
      Printf.printf "  FAIL %-10s seed=%d  (%d shrink runs)\n" f.Fuzz.protocol
        f.Fuzz.spec.Fuzz.seed f.Fuzz.shrink_runs;
      List.iter (fun p -> Printf.printf "    %s\n" p) f.Fuzz.problems;
      Printf.printf "    replay: dune exec bench/main.exe -- fuzz-replay '%s'\n"
        (Fuzz.replay_to_string ~protocol:f.Fuzz.protocol f.Fuzz.spec))
    out.Fuzz.failures;
  out.Fuzz.failures = []

let run_fuzz_replay spec =
  match Fuzz.replay spec with
  | Error e ->
    Printf.eprintf "fuzz-replay: %s\n" e;
    false
  | Ok (protocol, s, problems) ->
    Printf.printf "\n=== fuzz replay: %s, seed %d ===\n" protocol s.Fuzz.seed;
    if problems = [] then
      print_endline "  clean: no oracle divergence, no invariant failure"
    else List.iter (fun p -> Printf.printf "  %s\n" p) problems;
    problems = []

(* ------------------------------------------------------------------ *)
(* Single scenarios (the sim subcommands). *)

let print_summary (s : Common.summary) =
  Printf.printf "protocol      : %s\n" s.Common.protocol;
  Printf.printf "goodput       : %.3f Mbps\n" s.Common.goodput_mbps;
  Printf.printf "owd mean/p99  : %.1f / %.1f ms\n"
    (Report.ms (Stats.mean s.Common.owd))
    (Report.ms (Stats.percentile s.Common.owd 99.0));
  Printf.printf "queuing mean  : %.1f ms\n"
    (Report.ms (Stats.mean s.Common.queuing_delay));
  Printf.printf "retransmits   : %d\n" s.Common.retransmissions;
  Printf.printf "wire bytes    : %d\n" s.Common.wire_bytes;
  Option.iter (Printf.printf "completion    : %.2f s\n") s.Common.completion_time

(* [sim path]'s goodput window opens after this warmup. *)
let path_warmup = 10.0

let sim_path protocol hops bw delay_ms plr bytes duration seed =
  let link = Common.link ~plr ~bw ~delay:(Units.ms_to_sec delay_ms) () in
  print_summary
    (Common.run_chain ~seed ?bytes ~duration ~warmup:path_warmup
       ~hops:(Common.uniform_hops ~n:hops link) protocol)

(* A pair with no route at any sampled instant (a bent pipe with no
   satellite in common view) gets one line and exit 1. *)
let with_route cmd f =
  match f () with
  | () -> true
  | exception S.No_route (src, dst) ->
    Printf.eprintf "sim %s: no route between %s and %s\n" cmd src dst;
    false

let sim_starlink protocol src dst bent_pipe quick seed =
  with_route "starlink" (fun () ->
      let r = S.run_pair ~quick ~seed ~src ~dst ~isls:(not bent_pipe) protocol in
      Printf.printf
        "route         : mean %.1f hops, min propagation %.1f ms, %d switches\n"
        r.S.mean_hops (Report.ms r.S.min_propagation) r.S.switches;
      print_summary r.S.summary)

(* Three flows start at 0, d/4 and d/2; rates are measured over
   [d/2 + 20, d], which is empty unless d > 40. *)
let sim_fairness protocol same_rtt duration =
  let access_delays =
    if same_rtt then [ 0.0075; 0.0075; 0.0075 ] else [ 0.015; 0.0225; 0.03 ]
  in
  let starts = [ 0.0; duration /. 4.0; duration /. 2.0 ] in
  let summaries, _ =
    Common.run_flows_dumbbell ~duration ~access_delays
      ~bottleneck:(Common.link ~bw:5.0 ~delay:0.015 ())
      ~access:(Common.link ~bw:100.0 ~delay:0.0075 ())
      ~starts protocol
  in
  let lo = List.nth starts 2 +. 20.0 in
  let rates =
    List.map
      (fun s ->
        Units.bytes_per_sec_to_mbps
          (Leotp_util.Timeseries.window_sum s.Common.delivery ~lo ~hi:duration
          /. (duration -. lo)))
      summaries
  in
  List.iteri (fun i r -> Printf.printf "flow %d: %.3f Mbps\n" (i + 1) r) rates;
  Printf.printf "jain index: %.3f\n" (Stats.jain_index rates)

let sim_ablation src dst quick =
  with_route "ablation" (fun () ->
      List.iter
        (fun (label, ablation) ->
          let cfg = Leotp.Config.with_ablation ablation Leotp.Config.default in
          let r = S.run_pair ~quick ~src ~dst ~isls:true (Common.Leotp cfg) in
          Printf.printf "%s: %.2f Mbps, OWD %.1f ms\n" label
            r.S.summary.Common.goodput_mbps
            (Report.ms (Stats.mean r.S.summary.Common.owd)))
        [ ("A (full)        ", Leotp.Config.Full);
          ("B (no cache)    ", Leotp.Config.No_cache);
          ("C (e2e cc)      ", Leotp.Config.E2e_cc);
          ("D (no midnodes) ", Leotp.Config.No_midnodes) ])

let sim_route src dst duration =
  let w = Leotp_constellation.Walker.create Leotp_constellation.Walker.starlink in
  let city = Leotp_constellation.Cities.find_exn in
  List.iter
    (function
      | t, `Route hops ->
        Printf.printf "t=%5.0fs: %2d hops, %.1f ms one-way\n" t
          (Path_service.hop_count hops)
          (Report.ms (Path_service.total_delay hops))
      | _, `No_route -> ())
    (Path_service.snapshots_with_gaps w ~src:(city src) ~dst:(city dst)
       ~isls:true ~t_end:duration ~step:10.0)

(* ------------------------------------------------------------------ *)
(* Command line.  Every value is checked by its converter, so hostile
   input gets a diagnostic (exit 124) instead of a crash or a nonsense
   number; a run that fails its checks or its gate exits 1. *)

let checked ~docv ~what parse ok pp =
  let parse s =
    match parse s with
    | Some v when ok v -> Ok v
    | _ -> Error (Printf.sprintf "expected %s, got %S" what s)
  in
  Arg.conv' ~docv (parse, pp)

let positive_int =
  checked ~docv:"N" ~what:"a positive integer" int_of_string_opt (fun n -> n >= 1)
    Format.pp_print_int

let float_in ~docv ~what ok =
  checked ~docv ~what float_of_string_opt
    (fun v -> Float.is_finite v && ok v)
    Format.pp_print_float

let positive = float_in ~docv:"X" ~what:"a positive number" (fun v -> v > 0.0)

let city =
  checked ~docv:"CITY" ~what:"a known city" Option.some
    (fun s -> Leotp_constellation.Cities.find s <> None)
    Format.pp_print_string

let city_pair =
  let parse s =
    match String.index_opt s ':' with
    | None -> Error (Printf.sprintf "expected SRC:DST, got %S" s)
    | Some i -> (
      let part a b = Arg.conv_parser city (String.sub s a b) in
      match (part 0 i, part (i + 1) (String.length s - i - 1)) with
      | Ok src, Ok dst -> Ok (src, dst)
      | Error (`Msg m), _ | _, Error (`Msg m) -> Error m)
  in
  Arg.conv' ~docv:"SRC:DST" (parse, fun ppf (s, d) -> Format.fprintf ppf "%s:%s" s d)

let fault_spec =
  let parse spec =
    match String.split_on_char ':' spec with
    | [ "random"; seed; n ] -> (
      match (int_of_string_opt seed, int_of_string_opt n) with
      | Some seed, Some n when n >= 1 -> Ok (`Random (seed, n))
      | _ -> Error (Printf.sprintf "random:SEED:N expects integers, got %S" spec))
    | _ -> Result.map (fun s -> `Schedule s) (Fault.of_string spec)
  in
  let print ppf = function
    | `Random (seed, n) -> Format.fprintf ppf "random:%d:%d" seed n
    | `Schedule s -> Format.pp_print_string ppf (Fault.to_string s)
  in
  Arg.conv' ~docv:"SPEC" (parse, print)

let opt c default name ~docv doc =
  Arg.(value & opt c default & info [ name ] ~docv ~doc)
let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let pos_req i c ~docv doc = Arg.(required & pos i (some c) None & info [] ~docv ~doc)
let quick = flag "quick" "Shrunk runs."
let seed default = opt Arg.int default "seed" ~docv:"S" "Root seed."
let bent_pipe = flag "bent-pipe" "Disable inter-satellite links."
let trace_file =
  opt Arg.string "TRACE_path.jsonl" "trace-file" ~docv:"PATH" "TRACE_PATH file."

let out_dir =
  opt Arg.dir "." "out-dir" ~docv:"DIR" "Existing directory for records and traces."

let protocol_in ~what ok =
  let proto =
    checked ~docv:"PROTO" ~what Common.protocol_of_name ok
      (fun ppf p -> Format.pp_print_string ppf (Common.protocol_name p))
  in
  Arg.(
    value
    & opt proto (Common.Leotp Leotp.Config.default)
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:
          "Transport: leotp, leotp-b/c/d (ablations), or a TCP variant \
           (newreno, cubic, hybla, westwood, vegas, bbr, pcc), optionally \
           prefixed with split- for Split TCP (single-flow scenarios only).")

let protocol = protocol_in ~what:"a known protocol" (fun _ -> true)

let dumbbell_protocol =
  protocol_in ~what:"a protocol with a dumbbell form (not split-TCP)"
    Common.runs_on_dumbbell

let duration ~above ~why =
  let what = Printf.sprintf "a duration above %g s (%s)" above why in
  Arg.(
    value
    & opt (float_in ~docv:"SECONDS" ~what (fun v -> v > above)) 60.0
    & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc:"Simulated duration.")

let jobs =
  Term.(
    const Runner.set_jobs
    $ opt positive_int 1 "jobs" ~docv:"N" "Run simulation cells on N worker domains.")

let check =
  Term.(
    const (fun on -> if on then Atomic.set Invariants.self_check true)
    $ flag "check" "Attach the invariant checker to every scenario.")

(* [gated run] adds --gate FILE to a record-writing command.  The
   baselines are read before anything runs; a file the strict reader
   rejects fails the command (exit 1) without running it. *)
let gated run =
  Term.(
    const (fun path run ->
        match Option.map read_baselines path with
        | None -> run None
        | Some (Ok g) -> run (Some g)
        | Some (Error m) ->
          prerr_endline ("--gate " ^ m);
          false)
    $ opt (Arg.some Arg.file) None "gate" ~docv:"FILE"
        "Check the records against FILE's baselines; exit 1 on a regression."
    $ run)

let cmd name ~doc term =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun ok -> if ok then 0 else 1) $ term)

let sim name ~doc term = cmd name ~doc Term.(const (fun () -> true) $ term)

let fig_cmd =
  let ids =
    Arg.(
      value
      & pos_all (enum (List.map (fun (id, _) -> (id, id)) all_experiments)) []
      & info [] ~docv:"ID" ~doc:"Experiments to run (default: all).")
  in
  cmd "fig" ~doc:"Regenerate the paper's figures and tables."
    (gated
       Term.(
         const (fun () () quick out_dir ids gate -> run_figs ~quick ~out_dir ~gate ids)
         $ jobs $ check $ quick $ out_dir $ ids))

let manyflow_cmd =
  cmd "manyflow" ~doc:"Run ~N open-loop flows over the live constellation."
    (gated
       Term.(
         const (fun () () flows quick out_dir seed shards gate ->
             run_manyflow ~quick ~out_dir ~flows ~seed ~shards ~gate)
         $ jobs $ check
         $ pos_req 0 positive_int ~docv:"N" "Target flow count."
         $ quick $ out_dir $ seed 7
         $ opt positive_int 8 "shards" ~docv:"K"
             "Fixed shard count; digests depend on K but never on --jobs."))

let pathtrace_cmd =
  let d = Pathtrace.default in
  let seconds name default doc = opt positive default name ~docv:"S" doc in
  let gen =
    cmd "gen" ~doc:"Sample the constellation into --trace-file, then replay it."
      Term.(
        const (fun () file (src, dst) bent_pipe horizon step route_epoch seed ->
            run_gen ~file ~src ~dst ~isls:(not bent_pipe) ~horizon ~step
              ~route_epoch ~seed)
        $ check $ trace_file
        $ opt city_pair (d.Pathtrace.src, d.Pathtrace.dst) "pair" ~docv:"SRC:DST"
            "City pair."
        $ bent_pipe
        $ seconds "horizon" d.Pathtrace.horizon "Orbital time to sample."
        $ seconds "step" d.Pathtrace.step "Sampling step."
        $ seconds "route-epoch" d.Pathtrace.route_epoch "Routing recompute quantum."
        $ seed 7)
  in
  let replay =
    cmd "replay" ~doc:"Replay --trace-file and print its digest."
      Term.(
        const (fun () file -> run_replay ~file)
        $ check $ trace_file)
  in
  Cmd.group
    (Cmd.info "pathtrace"
       ~doc:"Trace-driven paths: gen and replay print the same digest.")
    [ gen; replay ]

let faults_cmd =
  cmd "faults" ~doc:"LEOTP over a 4-hop chain under a fault schedule."
    Term.(
      const (fun quick out_dir trace_wanted ->
          run_fault_lab ~quick ~out_dir ~trace_wanted)
      $ quick $ out_dir
      $ flag "trace" "Export the packet trace as JSONL."
      $ Arg.(
          value
          & pos 0 (some fault_spec) None
          & info [] ~docv:"SPEC"
              ~doc:"'<t>@<verb>:<target>[=args];...' or random:SEED:N."))

let fuzz_cmd =
  cmd "fuzz" ~doc:"Run N random scenarios through the protocol oracle."
    Term.(
      const (fun () cases seed -> run_fuzz ~cases ~seed)
      $ jobs $ pos_req 0 positive_int ~docv:"N" "Cases." $ seed 7)

let fuzz_replay_cmd =
  cmd "fuzz-replay" ~doc:"Re-run one spec printed by a failing fuzz."
    Term.(const run_fuzz_replay $ pos_req 0 Arg.string ~docv:"SPEC" "Replay spec.")

let sim_cmd =
  let endpoint i default =
    Arg.(value & pos i city default & info [] ~docv:(if i = 0 then "SRC" else "DST"))
  in
  let in_range ~docv ~what lo hi = float_in ~docv ~what (fun v -> v >= lo && v <= hi) in
  Cmd.group
    (Cmd.info "sim" ~doc:"Single scenarios on the simulator.")
    [ sim "path" ~doc:"One flow over a static chain."
        Term.(
          const sim_path $ protocol
          $ opt positive_int 5 "hops" ~docv:"N" "Hop count."
          $ opt positive 20.0 "bw" ~docv:"MBPS" "Per-hop bandwidth."
          $ opt (in_range ~docv:"MS" ~what:"a non-negative delay" 0.0 infinity) 10.0
              "delay" ~docv:"MS" "Per-hop one-way delay (ms)."
          $ opt (in_range ~docv:"P" ~what:"a probability in [0, 1]" 0.0 1.0) 0.0
              "plr" ~docv:"P" "Per-hop loss rate."
          $ opt (Arg.some positive_int) None "bytes" ~docv:"N"
              "Fixed transfer size (bulk flow if absent)."
          $ duration ~above:path_warmup ~why:"the goodput window opens after the warmup"
          $ seed 42);
      cmd "starlink" ~doc:"One flow over the emulated constellation."
        Term.(
          const sim_starlink $ protocol $ endpoint 0 "Beijing" $ endpoint 1 "New York"
          $ bent_pipe $ quick $ seed 42);
      sim "fairness" ~doc:"Three staggered flows on a dumbbell."
        Term.(
          const sim_fairness $ dumbbell_protocol
          $ flag "same-rtt" "All flows share one RTT (default: 90/120/150 ms)."
          $ duration ~above:40.0 ~why:"rates are measured over [d/2 + 20, d]");
      cmd "ablation" ~doc:"Table II ablations on a city pair."
        Term.(
          const sim_ablation $ endpoint 0 "Beijing" $ endpoint 1 "Hong Kong"
          $ quick);
      sim "route" ~doc:"Print orbital routes for a city pair over time."
        Term.(
          const sim_route $ endpoint 0 "Beijing" $ endpoint 1 "New York"
          $ duration ~above:0.0 ~why:"a positive horizon") ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "leotp" ~version:"1.0.0"
             ~doc:"LEOTP reproduction: figures, scale, trace, fault and fuzz \
                   runs, and single scenarios.")
          [ fig_cmd; manyflow_cmd; pathtrace_cmd; faults_cmd; fuzz_cmd;
            fuzz_replay_cmd; sim_cmd ]))
