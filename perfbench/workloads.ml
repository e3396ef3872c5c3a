(* The benchmark's three workloads, driven only through the library's
   public API.

   - [chain]: one LEOTP bulk flow over a 5-hop chain (20 Mbps, 10 ms,
     1 % loss per hop), built here from [Topology.chain] and
     [Session.over_chain] so its link / midnode / consumer counters stay
     readable.  No trace recorder.  Closed loop: one flow.
   - [manyflow]: [Fleet.run] over a seeded open-loop [Workload] schedule
     on the live Walker constellation (8 fixed shards, each with a
     digesting recorder and an invariant sink).
   - [pathtrace]: [Pathtrace.generate] of an ISL trace (Beijing - New
     York) as set-up, then [Pathtrace.run] replays its head over the
     dynamic path, digesting every event.

   One iteration of a workload is one complete simulation from fresh
   state; the same seed gives the same iteration every time. *)

module Engine = Leotp_sim.Engine
module Bandwidth = Leotp_net.Bandwidth
module Topology = Leotp_net.Topology
module Link = Leotp_net.Link
module Node = Leotp_net.Node
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Path_trace = Leotp_net.Path_trace
module Common = Leotp_scenario.Common
module Invariants = Leotp_scenario.Invariants
module Fleet = Leotp_scenario.Fleet
module Workload = Leotp_scenario.Workload
module Pathtrace = Leotp_scenario.Pathtrace
module Walker = Leotp_constellation.Walker
module Stats = Leotp_util.Stats
module Rng = Leotp_util.Rng
module Units = Leotp_util.Units

let span = Spans.span

(* How much simulation one iteration holds.  [full] is what the
   benchmark command runs; [tiny] keeps the benchmark's own tests fast. *)
type size = {
  chain_sim_s : float;  (** simulated seconds per chain iteration *)
  manyflow_flows : int;  (** expected flows per [Fleet.run] *)
  manyflow_horizon : float;  (** arrival window, seconds *)
  pathtrace_horizon : float;  (** generated trace length, seconds *)
  pathtrace_replay_s : float;  (** replayed head of the trace, seconds *)
  setup_reps : int;
      (** set-up repetitions behind the setup_s median (times 20 for the
          sub-millisecond set-ups of chain and manyflow) *)
  kernel_s : float;  (** host seconds each per-layer kernel runs *)
  ab_sim_s : float;  (** simulated seconds of each A/B arm's chain run *)
}

let full =
  {
    chain_sim_s = 60.0;
    manyflow_flows = 250;
    manyflow_horizon = 30.0;
    pathtrace_horizon = 1800.0;
    pathtrace_replay_s = 8.0;
    setup_reps = 3;
    kernel_s = 0.3;
    ab_sim_s = 5.0;
  }

let tiny =
  {
    chain_sim_s = 2.0;
    manyflow_flows = 12;
    manyflow_horizon = 10.0;
    pathtrace_horizon = 30.0;
    pathtrace_replay_s = 2.0;
    setup_reps = 1;
    kernel_s = 0.01;
    ab_sim_s = 1.0;
  }

(* ------------------------------------------------------------------ *)
(* Host cost of one call, measured from outside.

   [alloc_words] is the [Gc.allocated_bytes] delta in words: minor plus
   direct-major allocation of the calling domain.  bench/main.ml and
   [Runner] publish the same quantity (bytes / 8 / packets) under the
   name minor_words_per_packet, so bench/baselines.json numbers compare
   directly with alloc_words_per_packet here; only the name differs.
   Every workload runs on the calling domain ([Runner] jobs 1), so the
   delta covers all of its allocation. *)

type cost = {
  wall_s : float;
  alloc_words : float;
  packets : int;  (** [Packet.created_on_domain] delta *)
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

let measure f =
  let g0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let p0 = Packet.created_on_domain () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let p1 = Packet.created_on_domain () in
  let a1 = Gc.allocated_bytes () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      wall_s = t1 -. t0;
      alloc_words = (a1 -. a0) /. float_of_int (Sys.word_size / 8);
      packets = p1 - p0;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)

(* What one iteration simulated, plus the checks it failed. *)
type sample = {
  cost : cost;
  sim_s : float;  (** simulated seconds, summed over shards *)
  flow_sim_s : float;  (** sum over flows of active simulated time *)
  goodput_mbps : float;
  owd_p50_ms : float;  (** 0 where per-packet OWD is not observable *)
  owd_p99_ms : float;
  offered : int;  (** flows offered (manyflow; each is one operation) *)
  completed : int;
  digest : string;  (** packet-trace digest; "" when nothing digests *)
  fingerprint : string;  (** digest + simulated summary; repeats per seed *)
  problems : string list;  (** failed checks, one line each *)
  counters : (string * float) list;  (** per-layer counters, by metric name *)
}

type t = {
  name : string;
  setup_parts : (string * (unit -> unit)) list;
      (** set-up calls, each timed on its own; setup_s is their sum *)
  setup_reps : int;
  reference : unit -> sample;
      (** the untimed first iteration, with the workload's extra checks
          attached; every timed iteration must reproduce its fingerprint *)
  iterate : unit -> sample;
  input_trace : unit -> Path_trace.t option;  (** pathtrace's generated input *)
}

let leak_problems ~pool_live_delta ~pit_pending =
  (if pool_live_delta <> 0 then
     [ Printf.sprintf "pool_live_delta = %d (pooled packets leaked)" pool_live_delta ]
   else [])
  @
  if pit_pending <> 0 then
    [ Printf.sprintf "%d PIT entries still pending at the end" pit_pending ]
  else []

let invariant_problems ~where reports =
  List.filter_map
    (fun (r : Invariants.report) ->
      if r.Invariants.ok then None
      else
        Some
          (Printf.sprintf "%s: invariant %s failed: %s" where
             r.Invariants.invariant r.Invariants.detail))
    reports

let owd_ms owd p =
  if Stats.is_empty owd then 0.0 else Units.sec_to_ms (Stats.percentile owd p)

(* ------------------------------------------------------------------ *)
(* chain *)

let config = Leotp.Config.default
let chain_hops = 5
let hop_delay = 0.01

let chain_hop ~plr =
  Topology.hop ~plr ~buffer_bytes:(256 * 1024)
    ~bandwidth:(Bandwidth.Constant (Units.mbps_to_bytes_per_sec 20.0))
    ~delay:hop_delay ()

type chain_run = {
  engine : Engine.t;
  session : Leotp.Session.t;
  links : Link.t list;
}

let build_chain ?(plr = 0.01) ~seed () =
  Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let chain = Topology.chain engine ~rng (Array.make chain_hops (chain_hop ~plr)) in
  let session = Leotp.Session.over_chain engine ~config ~chain ~flow:1 () in
  let links =
    Array.fold_right
      (fun (d : Topology.duplex) acc -> d.Topology.fwd :: d.Topology.rev :: acc)
      chain.Topology.hops []
  in
  { engine; session; links }

(* Time given to in-flight deliveries after the teardown flush. *)
let drain_s = 2.0

type chain_result = {
  goodput : float;
  p50 : float;
  p99 : float;
  retransmissions : int;
  counters : (string * float) list;
  leaks : string list;
}

(* Simulate [duration] seconds and read the simulated results at that
   instant.  Then tear the flow down the way [Fleet] retires one: stop
   both ends, retire the midnodes' per-flow state, flush every link and
   let the stale deliveries drain, so every pooled packet comes home
   and the PITs empty.  [trace] / [on_reports] attach observers through
   [Common.observed]; without them nothing is recorded. *)
let simulate_chain ?trace ?on_reports ~duration r =
  let midnodes = r.session.Leotp.Session.midnodes in
  let pool0 = Pool.live_count () in
  let sweep ~now = List.iter (fun m -> Leotp.Midnode.sweep_pit m ~now) midnodes in
  let goodput, p50, p99, retransmissions =
    Common.observed ~engine:r.engine ~links:r.links ?trace ?on_reports ~sweep
      ~label:"chain"
    @@ fun () ->
    Leotp.Session.start r.session;
    span "Engine.run" (fun () -> Engine.run ~until:duration r.engine);
    let s =
      Common.summarize ~protocol:"leotp" ~metrics:r.session.Leotp.Session.metrics
        ~floor:(float_of_int chain_hops *. hop_delay)
        ~warmup:(0.25 *. duration) ~duration ()
    in
    let read =
      ( s.Common.goodput_mbps,
        owd_ms s.Common.owd 50.0,
        owd_ms s.Common.owd 99.0,
        s.Common.retransmissions )
    in
    span "teardown" (fun () ->
        Leotp.Session.stop r.session;
        Leotp.Producer.stop r.session.Leotp.Session.producer;
        List.iter (fun m -> Leotp.Midnode.retire_flow m ~flow:1) midnodes;
        List.iter Link.flush r.links;
        Engine.run ~until:(duration +. drain_s) r.engine;
        sweep ~now:(Engine.now r.engine));
    read
  in
  let sum f = List.fold_left (fun acc l -> acc + f (Link.stats l)) 0 r.links in
  let cache f =
    List.fold_left
      (fun acc m -> acc + f (Leotp.Cache.stats (Leotp.Midnode.cache m)))
      0 midnodes
  in
  let pit_pending =
    List.fold_left (fun acc m -> acc + Leotp.Midnode.pit_pending m) 0 midnodes
  in
  let pool_live_delta = Pool.live_count () - pool0 in
  let consumer = r.session.Leotp.Session.consumer in
  let i = float_of_int in
  let counters =
    [
      ("engine.events", i (Engine.events_processed r.engine));
      ("link.packets_in", i (sum (fun s -> s.Link.packets_in)));
      ("link.drops_tail", i (sum (fun s -> s.Link.drops_tail)));
      ("link.drops_error", i (sum (fun s -> s.Link.drops_error)));
      ("pool.live_delta", i pool_live_delta);
      ("cache.hits", i (cache (fun s -> s.Leotp.Cache.hits)));
      ("cache.misses", i (cache (fun s -> s.Leotp.Cache.misses)));
      ("pit.pending_end", i pit_pending);
      ("consumer.interests_sent", i (Leotp.Consumer.interests_sent consumer));
      ("consumer.interest_retx", i (Leotp.Consumer.interest_retx consumer));
    ]
  in
  {
    goodput;
    p50;
    p99;
    retransmissions;
    counters;
    leaks = leak_problems ~pool_live_delta ~pit_pending;
  }

let fingerprint_of_counters counters =
  String.concat ","
    (List.filter_map
       (fun (k, v) -> if k = "pool.live_delta" then None else Some (Printf.sprintf "%s=%h" k v))
       counters)

let chain_fingerprint r =
  Printf.sprintf "goodput=%h,owd50=%h,owd99=%h,retx=%d,%s" r.goodput r.p50 r.p99
    r.retransmissions
    (fingerprint_of_counters r.counters)

let chain ~size ~seed =
  let duration = size.chain_sim_s in
  let run ?on_reports () =
    let r = span "Topology.chain+Session.over_chain" (build_chain ~seed) in
    simulate_chain ?on_reports ~duration r
  in
  let iterate ?on_reports () =
    let res, cost = measure (fun () -> run ?on_reports ()) in
    {
      cost;
      sim_s = duration;
      flow_sim_s = duration;
      goodput_mbps = res.goodput;
      owd_p50_ms = res.p50;
      owd_p99_ms = res.p99;
      offered = 0;
      completed = 0;
      digest = "";
      fingerprint = chain_fingerprint res;
      problems = res.leaks;
      counters = res.counters;
    }
  in
  (* The reference iteration runs with the invariant sink attached: it
     must pass all five invariants, and since observers never perturb
     the simulation, the unobserved timed iterations must reproduce it. *)
  let reference () =
    let reports = ref [] in
    let s = iterate ~on_reports:(fun r -> reports := r) () in
    { s with problems = s.problems @ invariant_problems ~where:"chain" !reports }
  in
  {
    name = "chain";
    setup_reps = 20 * size.setup_reps;
    setup_parts =
      [
        ( "chain.build",
          fun () ->
            let (_ : chain_run) = build_chain ~seed () in
            () );
      ];
    reference;
    iterate = (fun () -> iterate ());
    input_trace = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* manyflow *)

(* The schedule is drawn from the seed, but with its volume held still:
   a few hundred flows with lognormal sizes vary by ~10 % in total bytes
   from seed to seed, which would swamp any host-time change.  So the
   seed picks [candidates] workload seeds, and the one whose flow count,
   bytes and TCP byte share sit closest to the candidates' medians is
   run.  Different seeds draw disjoint candidate sets. *)
let candidates = 256

let volume arrivals =
  List.fold_left
    (fun (n, bytes, tcp) (a : Workload.arrival) ->
      ( n + 1,
        bytes + a.Workload.bytes,
        tcp + if a.Workload.protocol = Workload.Tcp then a.Workload.bytes else 0 ))
    (0, 0, 0) arrivals

let manyflow_spec ~size ~seed =
  let base =
    Workload.scale_to
      { Workload.default with Workload.horizon = size.manyflow_horizon }
      ~flows:size.manyflow_flows
  in
  let drawn =
    List.init candidates (fun k ->
        let s = (seed * candidates) + k in
        let n, bytes, tcp = volume (Workload.generate { base with Workload.seed = s }) in
        (s, float_of_int n, float_of_int bytes, float_of_int tcp /. float_of_int (max 1 bytes)))
  in
  let med f = median (List.map f drawn) in
  let n0 = med (fun (_, n, _, _) -> n)
  and b0 = med (fun (_, _, b, _) -> b)
  and t0 = med (fun (_, _, _, t) -> t) in
  let off (_, n, b, t) =
    Float.max (Float.abs ((n /. n0) -. 1.0))
      (Float.max (Float.abs ((b /. b0) -. 1.0)) (Float.abs (t -. t0)))
  in
  let s, _, _, _ =
    List.fold_left (fun best c -> if off c < off best then c else best) (List.hd drawn) drawn
  in
  { Fleet.default with Fleet.workload = { base with Workload.seed = s } }

let manyflow_counters (s : Fleet.stats) =
  let i = float_of_int in
  [
    ("engine.events", i s.Fleet.events);
    ("pool.live_delta", i s.Fleet.pool_live_delta);
    ("pit.pending_end", i s.Fleet.pit_pending_end);
    ("route.queries", i s.Fleet.route_queries);
    ("route.computes", i s.Fleet.route_computes);
    ("fleet.flows_started", i s.Fleet.flows_started);
    ("fleet.flows_completed", i s.Fleet.flows_completed);
    ("fleet.flows_skipped", i s.Fleet.flows_skipped);
    ("fleet.peak_active", i s.Fleet.peak_active);
  ]

let manyflow ~size ~seed =
  let spec = manyflow_spec ~size ~seed in
  let iterate () =
    let s, cost = measure (fun () -> span "Fleet.run" (fun () -> Fleet.run spec)) in
    let problems =
      List.concat_map
        (fun (r : Fleet.shard_stats) ->
          invariant_problems
            ~where:(Printf.sprintf "manyflow shard %d" r.Fleet.shard)
            r.Fleet.reports)
        s.Fleet.shards
      @ leak_problems ~pool_live_delta:s.Fleet.pool_live_delta
          ~pit_pending:s.Fleet.pit_pending_end
    in
    let counters = manyflow_counters s in
    {
      cost;
      sim_s = s.Fleet.sim_seconds;
      flow_sim_s = s.Fleet.flow_sim_seconds;
      (* Mean per-flow goodput: bytes delivered per active flow-second. *)
      goodput_mbps =
        (if s.Fleet.flow_sim_seconds > 0.0 then
           Units.bytes_per_sec_to_mbps
             (float_of_int s.Fleet.bytes_delivered /. s.Fleet.flow_sim_seconds)
         else 0.0);
      owd_p50_ms = 0.0;
      owd_p99_ms = 0.0;
      offered = s.Fleet.flows_offered;
      completed = s.Fleet.flows_completed;
      digest = s.Fleet.digest;
      fingerprint =
        Printf.sprintf "digest=%s,bytes=%d,packets=%d,flow_sim_s=%h,%s"
          s.Fleet.digest s.Fleet.bytes_delivered s.Fleet.packets
          s.Fleet.flow_sim_seconds
          (fingerprint_of_counters counters);
      problems;
      counters;
    }
  in
  {
    name = "manyflow";
    setup_reps = 20 * size.setup_reps;
    setup_parts =
      [
        ( "workload.generate_s",
          fun () ->
            let (_ : Workload.arrival list) =
              Workload.generate spec.Fleet.workload
            in
            () );
        ( "walker.create_s",
          fun () ->
            let (_ : Walker.t) = Walker.create Walker.starlink in
            () );
      ];
    (* Every Fleet iteration runs the invariant checker already; the
       reference also checks that the schedule is a pure function of
       the seed. *)
    reference =
      (fun () ->
        let s = iterate () in
        let a = Workload.generate spec.Fleet.workload
        and b = Workload.generate (manyflow_spec ~size ~seed).Fleet.workload in
        if a = b then s
        else
          { s with problems = "manyflow: Workload.generate is not a pure function of the seed" :: s.problems });
    iterate;
    input_trace = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* pathtrace *)

let pathtrace_spec ~size ~seed =
  { Pathtrace.default with Pathtrace.horizon = size.pathtrace_horizon; seed }

let pathtrace_fingerprint (r : Pathtrace.run_result) =
  let s = r.Pathtrace.summary in
  Printf.sprintf "digest=%s,goodput=%h,owd50=%h,owd99=%h,retx=%d,switches=%d"
    r.Pathtrace.digest s.Common.goodput_mbps (owd_ms s.Common.owd 50.0)
    (owd_ms s.Common.owd 99.0) s.Common.retransmissions r.Pathtrace.switches

(* Parse the [Path_trace.to_string] text of a trace back; it must
   re-print byte-identically.  Takes the text, so a test can plant a
   corrupted line. *)
let roundtrip text =
  match Path_trace.of_string text with
  | Error msg -> Error ("pathtrace: round-trip parse failed: " ^ msg)
  | Ok tr when Path_trace.to_string tr <> text ->
    Error "pathtrace: to_string/of_string round trip is not byte-identical"
  | Ok tr -> Ok tr

let with_self_check f =
  let prev = Atomic.get Invariants.self_check in
  Atomic.set Invariants.self_check true;
  Fun.protect ~finally:(fun () -> Atomic.set Invariants.self_check prev) f

let pathtrace ~size ~seed =
  let spec = pathtrace_spec ~size ~seed in
  let trace = ref None in
  let generate () =
    let tr = span "Pathtrace.generate" (fun () -> Pathtrace.generate spec) in
    trace := Some tr;
    tr
  in
  let get () = match !trace with Some tr -> tr | None -> generate () in
  let duration = size.pathtrace_replay_s in
  let replay tr = span "Pathtrace.run" (fun () -> Pathtrace.run ~duration tr) in
  let iterate_on tr =
    let pool0 = Pool.live_count () in
    let r, cost = measure (fun () -> replay tr) in
    let s = r.Pathtrace.summary in
    let i = float_of_int in
    {
      cost;
      sim_s = duration;
      flow_sim_s = duration;
      goodput_mbps = s.Common.goodput_mbps;
      owd_p50_ms = owd_ms s.Common.owd 50.0;
      owd_p99_ms = owd_ms s.Common.owd 99.0;
      offered = 0;
      completed = 0;
      digest = r.Pathtrace.digest;
      fingerprint = pathtrace_fingerprint r;
      (* Pathtrace.run cuts its bulk flow mid-transfer and keeps no
         teardown, so its pool ledger is open by design: the live delta
         is reported, not checked. *)
      problems = [];
      counters =
        [
          ("dynamic_path.switches", i r.Pathtrace.switches);
          ("pathtrace.handovers", i r.Pathtrace.handovers);
          ("pathtrace.outage_fraction", r.Pathtrace.outage_fraction);
          ("pool.live_delta", i (Pool.live_count () - pool0));
        ];
    }
  in
  {
    name = "pathtrace";
    setup_reps = size.setup_reps;
    setup_parts =
      [
        ( "pathtrace.generate_s",
          fun () ->
            let (_ : Path_trace.t) = generate () in
            () );
      ];
    (* The reference replays the round-tripped text with the invariant
       checker raising on any violation; the timed iterations replay the
       live trace and must give the same digest and summary. *)
    reference =
      (fun () ->
        match roundtrip (Path_trace.to_string (get ())) with
        | Ok tr -> with_self_check (fun () -> iterate_on tr)
        | Error e ->
          let s = iterate_on (get ()) in
          { s with problems = e :: s.problems });
    iterate = (fun () -> iterate_on (get ()));
    input_trace = (fun () -> Some (get ()));
  }

let names = [ "chain"; "manyflow"; "pathtrace" ]

let make ~size ~seed = function
  | "chain" -> Some (chain ~size ~seed)
  | "manyflow" -> Some (manyflow ~size ~seed)
  | "pathtrace" -> Some (pathtrace ~size ~seed)
  | _ -> None
