(* Per-layer measurements for the traced run, all taken from outside the
   library: kernels that time a layer's public functions in a loop, and
   A/B runs that add one observer (trace digest, invariant sink) to an
   otherwise identical simulation. *)

module W = Workloads
module Engine = Leotp_sim.Engine
module Topology = Leotp_net.Topology
module Node = Leotp_net.Node
module Link = Leotp_net.Link
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Trace = Leotp_net.Trace
module Path_trace = Leotp_net.Path_trace
module Dynamic_path = Leotp_net.Dynamic_path
module Common = Leotp_scenario.Common
module Fleet = Leotp_scenario.Fleet
module Pathtrace = Leotp_scenario.Pathtrace
module Walker = Leotp_constellation.Walker
module Path_service = Leotp_constellation.Path_service
module Cities = Leotp_constellation.Cities
module Rng = Leotp_util.Rng

let span = Spans.span

let median = W.median

(* Host seconds per call of [f]: calls run in batches of [batch] until
   [budget] seconds have passed (at least three batches); the median
   batch sets the figure. *)
let per_call ~budget ~batch f =
  let times = ref [] in
  let stop = Unix.gettimeofday () +. budget in
  while List.length !times < 3 || Unix.gettimeofday () < stop do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    times := ((Unix.gettimeofday () -. t0) /. float_of_int batch) :: !times
  done;
  median !times

let ns s = s *. 1e9

(* Medians of [reps] measured runs of [f]: (wall_s, alloc_words, result
   of the last run). *)
let repeated ~reps f =
  let runs = List.init reps (fun _ -> W.measure f) in
  ( median (List.map (fun (_, c) -> c.W.wall_s) runs),
    median (List.map (fun (_, c) -> c.W.alloc_words) runs),
    fst (List.nth runs (reps - 1)) )

(* ------------------------------------------------------------------ *)
(* Kernels *)

(* 4096 timers at seeded random offsets, every fourth cancelled, the
   rest fired: schedule + cancel + dispatch per fired event. *)
let engine_events_per_call = 3072

let engine_kernel () =
  let rng = Rng.create ~seed:1 in
  let offsets = Array.init 4096 (fun _ -> Rng.float rng 1.0) in
  fun () ->
    let e = Engine.create () in
    let fired = ref 0 in
    Array.iteri
      (fun i after ->
        let t = Engine.schedule e ~after (fun () -> incr fired) in
        if i land 3 = 0 then Engine.cancel t)
      offsets;
    Engine.run e;
    assert (!fired = engine_events_per_call)

let pool_kernel () =
  for _ = 1 to 1024 do
    Pool.release
      (Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:1400 ~kind:Packet.kind_raw)
  done

let kernels ~(size : W.size) =
  let budget = size.W.kernel_s in
  let k name batch f = span name (fun () -> per_call ~budget ~batch f) in
  [
    ( "engine.ns_per_event",
      ns (k "kernel.engine" 1 (engine_kernel ()))
      /. float_of_int engine_events_per_call );
    ("pool.ns_per_acquire_release", ns (k "kernel.pool" 16 pool_kernel) /. 1024.0);
    ( "midnode.ns_per_packet_plr0",
      ns (k "kernel.midnode_plr0" 4 (Fig19_kernels.midnode_stream ~plr:0.0 ()))
      /. 256.0 );
    ( "midnode.ns_per_packet_plr1",
      ns (k "kernel.midnode_plr1" 4 (Fig19_kernels.midnode_stream ~plr:0.01 ()))
      /. 256.0 );
    ("cache.ns_per_op", ns (k "kernel.cache" 4 (Fig19_kernels.cache_ops ())) /. 512.0);
    ( "walker.create_s",
      k "Walker.create" 1 (fun () ->
          let (_ : Walker.t) = Walker.create Walker.starlink in
          ()) );
  ]

(* [Path_service.route_with_isls] at the pathtrace spec's routing-epoch
   instants: one Dijkstra over the constellation graph per call. *)
let route_kernel ~(size : W.size) ~seed =
  let spec = W.pathtrace_spec ~size ~seed in
  let w = Walker.create Walker.starlink in
  let src = Cities.find_exn spec.Pathtrace.src
  and dst = Cities.find_exn spec.Pathtrace.dst in
  let epochs =
    int_of_float (spec.Pathtrace.horizon /. spec.Pathtrace.route_epoch)
  in
  let instants =
    List.init (max 1 (min 16 epochs)) (fun i ->
        float_of_int i *. spec.Pathtrace.route_epoch)
  in
  let wall, words, () =
    span "kernel.route" (fun () ->
        repeated ~reps:3 (fun () ->
            List.iter
              (fun time ->
                let (_ : Path_service.hop list option) =
                  Path_service.route_with_isls w ~src ~dst ~time ()
                in
                ())
              instants))
  in
  let n = float_of_int (List.length instants) in
  [ ("route.ms_per_compute", wall *. 1e3 /. n); ("route.words_per_compute", words /. n) ]

(* The memo traffic of [Pathtrace.generate]: one query per sample step,
   one Dijkstra per routing epoch. *)
let pathtrace_memo ~(size : W.size) ~seed =
  let spec = W.pathtrace_spec ~size ~seed in
  let memo =
    Path_service.Memo.create ~epoch:spec.Pathtrace.route_epoch
      (Walker.create Walker.starlink)
  in
  let src = Cities.find_exn spec.Pathtrace.src
  and dst = Cities.find_exn spec.Pathtrace.dst in
  let steps = int_of_float (spec.Pathtrace.horizon /. spec.Pathtrace.step) in
  span "Path_service.Memo.route" (fun () ->
      for i = 0 to steps - 1 do
        let (_ : Path_service.hop list option) =
          Path_service.Memo.route memo ~src ~dst ~isls:spec.Pathtrace.isls
            ~time:(float_of_int i *. spec.Pathtrace.step)
        in
        ()
      done);
  [
    ("route.queries", float_of_int (Path_service.Memo.queries memo));
    ("route.computes", float_of_int (Path_service.Memo.computes memo));
  ]

(* ------------------------------------------------------------------ *)
(* A/B runs.  Each run's host time is taken in reference seconds (the
   host-speed kernel runs first, see {!Hostref}) and the arms run in
   rotation, so host-speed drift between arms, and between an A/B and
   the iteration it is set against, cancels. *)

type ab = {
  base_s : float;
  base_words : float;
  with_s : float;
  with_words : float;
  records : int;
  events : int;
}

let ab_metrics ab =
  let r = float_of_int (max 1 ab.records) in
  [
    ("trace.records", float_of_int ab.records);
    ("trace.digest_ns_per_record", ns (ab.with_s -. ab.base_s) /. r);
    ("trace.digest_words_per_record", (ab.with_words -. ab.base_words) /. r);
    ("trace.digest_time_share", (ab.with_s -. ab.base_s) /. ab.with_s);
    ("trace.digest_alloc_share", (ab.with_words -. ab.base_words) /. ab.with_words);
  ]

let measure_ref f =
  let kernel_s = Hostref.time () in
  let r, c = W.measure f in
  (r, { c with W.wall_s = Hostref.to_ref_s ~kernel_s c.W.wall_s })

(* [reps] rounds of every arm in [arms]; per arm: median reference
   seconds, median words, and one run's result and cost. *)
let rotate ~reps arms run =
  let runs =
    List.concat
      (List.init reps (fun _ ->
           List.map (fun arm -> (arm, measure_ref (fun () -> run arm))) arms))
  in
  fun arm ->
    let mine = List.filter_map (fun (a, x) -> if a = arm then Some x else None) runs in
    ( median (List.map (fun (_, c) -> c.W.wall_s) mine),
      median (List.map (fun (_, c) -> c.W.alloc_words) mine),
      List.hd mine )

let ab_of arms ~records ~events =
  let base_s, base_words, _ = arms `None and with_s, with_words, _ = arms `Digest in
  { base_s; base_words; with_s; with_words; records; events }

(* The chain workload, shortened, with no observer / a digesting
   recorder / the invariant sink (sink-only recorder, no digest). *)
let chain_ab ~(size : W.size) ~seed =
  let duration = size.W.ab_sim_s in
  let run arm =
    let r = W.build_chain ~seed () in
    let records =
      match arm with
      | `None ->
        ignore (W.simulate_chain ~duration r);
        0
      | `Digest ->
        let tr = Trace.create ~capacity:1 () in
        ignore (W.simulate_chain ~trace:tr ~duration r);
        Trace.count tr
      | `Invariants ->
        ignore (W.simulate_chain ~on_reports:ignore ~duration r);
        0
    in
    (records, Engine.events_processed r.W.engine)
  in
  let arms =
    span "ab.chain" (fun () -> rotate ~reps:3 [ `None; `Digest; `Invariants ] run)
  in
  let _, _, ((records, events), _) = arms `Digest in
  let base_s, _, _ = arms `None and inv_s, _, _ = arms `Invariants in
  (ab_of arms ~records ~events, ns (inv_s -. base_s) /. float_of_int (max 1 records))

(* The TCP arm of [Common.run_chain] (Cubic over the chain's hops at the
   fleet's GSL loss), rebuilt here so its engine's event count is
   readable; [trace] adds a digesting recorder. *)
let simulate_tcp ?trace ~seed ~duration () =
  Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let rng = Rng.create ~seed in
  let chain =
    Topology.chain engine ~rng
      (Array.make W.chain_hops (W.chain_hop ~plr:Fleet.default.Fleet.gsl_plr))
  in
  let links =
    Array.fold_right
      (fun (d : Topology.duplex) acc -> d.Topology.fwd :: d.Topology.rev :: acc)
      chain.Topology.hops []
  in
  let nodes = chain.Topology.nodes in
  Common.observed ~engine ~links ?trace ~label:"tcp" (fun () ->
      let s =
        Leotp_tcp.Session.connect engine ~src_node:nodes.(0)
          ~dst_node:nodes.(W.chain_hops) ~flow:1 ~cc:Leotp_tcp.Cc.Cubic
          ~source:Leotp_tcp.Sender.Unlimited ()
      in
      Leotp_tcp.Session.start s;
      Engine.run ~until:duration engine);
  Engine.events_processed engine

let tcp_ab ~(size : W.size) ~seed =
  let duration = size.W.ab_sim_s in
  let run = function
    | `None -> (simulate_tcp ~seed ~duration (), 0)
    | `Digest ->
      let tr = Trace.create ~capacity:1 () in
      let events = simulate_tcp ~trace:tr ~seed ~duration () in
      (events, Trace.count tr)
  in
  let arms = span "ab.tcp" (fun () -> rotate ~reps:3 [ `None; `Digest ] run) in
  let base_s, base_words, ((events, _), cost) = arms `None in
  let _, _, ((_, records), _) = arms `Digest in
  let packets = float_of_int (max 1 cost.W.packets) in
  ( [
      ("tcp.ns_per_packet", ns base_s /. packets);
      ("tcp.alloc_words_per_packet", base_words /. packets);
    ],
    ab_of arms ~records ~events )

(* [Pathtrace.run]'s LEOTP arm with the recorder made optional: same
   seed, path and wiring, so with a one-slot digesting recorder it must
   reproduce [Pathtrace.run]'s digest (checked by the caller). *)
let replay_pathtrace ?trace ~duration (tr : Path_trace.t) =
  Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let rng = Rng.create ~seed:tr.Path_trace.meta.Path_trace.seed in
  let max_hops = min 24 (Path_trace.max_hop_count tr) in
  let initial =
    List.find_map
      (fun (r : Path_trace.record) ->
        match r.Path_trace.event with
        | Path_trace.Route { hops; _ } ->
          Some (Dynamic_path.snapshot_of_hops ~max_hops hops)
        | Path_trace.No_route -> None)
      tr.Path_trace.records
    |> Option.get
  in
  let dp = Dynamic_path.create engine ~rng ~max_hops ~initial () in
  Dynamic_path.schedule_trace dp tr;
  let chain = Dynamic_path.chain dp in
  let links =
    Array.fold_left
      (fun acc (d : Topology.duplex) -> d.Topology.fwd :: d.Topology.rev :: acc)
      [] chain.Topology.hops
  in
  let session =
    Common.observed ~engine ~links ?trace ~label:"pathtrace" (fun () ->
        let s = Leotp.Session.over_chain engine ~config:W.config ~chain ~flow:1 () in
        Leotp.Session.start s;
        Engine.run ~until:duration engine;
        s)
  in
  (engine, links, session)

let pathtrace_ab ~(size : W.size) ~digest tr =
  let duration = size.W.pathtrace_replay_s in
  let run arm =
    let trace =
      match arm with `None -> None | `Digest -> Some (Trace.create ~capacity:1 ())
    in
    (replay_pathtrace ?trace ~duration tr, trace)
  in
  let arms = span "ab.pathtrace" (fun () -> rotate ~reps:2 [ `None; `Digest ] run) in
  let _, _, (((engine, links, session), recorder), _) = arms `Digest in
  let recorder = Option.get recorder in
  let records = Trace.count recorder in
  let problems =
    if Trace.digest recorder = digest then []
    else [ "pathtrace: digest A/B replica diverges from Pathtrace.run" ]
  in
  let sum f = List.fold_left (fun acc l -> acc + f (Link.stats l)) 0 links in
  let midnodes = session.Leotp.Session.midnodes in
  let cache f =
    List.fold_left
      (fun acc m -> acc + f (Leotp.Cache.stats (Leotp.Midnode.cache m)))
      0 midnodes
  in
  let i = float_of_int in
  let consumer = session.Leotp.Session.consumer in
  ( ab_of arms ~records ~events:(Engine.events_processed engine),
    [
      ("engine.events", i (Engine.events_processed engine));
      ("link.packets_in", i (sum (fun s -> s.Link.packets_in)));
      ("link.drops_tail", i (sum (fun s -> s.Link.drops_tail)));
      ("link.drops_error", i (sum (fun s -> s.Link.drops_error)));
      ("cache.hits", i (cache (fun s -> s.Leotp.Cache.hits)));
      ("cache.misses", i (cache (fun s -> s.Leotp.Cache.misses)));
      ( "pit.pending_end",
        i (List.fold_left (fun a m -> a + Leotp.Midnode.pit_pending m) 0 midnodes) );
      ("consumer.interests_sent", i (Leotp.Consumer.interests_sent consumer));
      ("consumer.interest_retx", i (Leotp.Consumer.interest_retx consumer));
    ],
    problems )

(* Fleet's shard recorders are private, so the digest's share of a
   manyflow run is estimated: the per-event digest cost measured by the
   LEOTP chain and TCP A/B runs, mixed by the workload's TCP share and
   scaled by the fleet's engine events, against the fleet iteration's
   reference seconds and words. *)
let manyflow_digest_estimate ~leotp ~tcp ~tcp_share ~events ~ref_s ~alloc_words =
  let per_event ab f = f ab /. float_of_int (max 1 ab.events) in
  let mix f = ((1.0 -. tcp_share) *. per_event leotp f) +. (tcp_share *. per_event tcp f) in
  let ev = float_of_int events in
  [
    ("trace.digest_time_share", ev *. mix (fun ab -> ab.with_s -. ab.base_s) /. ref_s);
    ( "trace.digest_alloc_share",
      ev *. mix (fun ab -> ab.with_words -. ab.base_words) /. alloc_words );
  ]
