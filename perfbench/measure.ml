(* The measuring loop, the failure tally and the result line.

   A plain run ([--trace 0]) runs one untimed reference iteration
   carrying the workload's extra checks, then repeats timed iterations
   for the requested host seconds and reports medians: the end-to-end
   metrics.  Set-up is timed [setup_reps] times along the way.  A traced run ([--trace 1]) runs the same loop with spans
   recorded around every call into the library, then the per-layer
   kernels and A/B runs of {!Layers}: the per-layer metrics. *)

module W = Workloads

let median = W.median

(* Name and unit of every metric the command prints; BENCHMARK.json
   names exactly these (checked by the benchmark's own tests). *)
let end_to_end =
  [
    ("sim_s_per_ref_s", "sim-s/ref-s");
    ("packets_per_ref_s", "pkt/ref-s");
    ("flow_sim_s_per_ref_s", "flow-sim-s/ref-s");
    ("alloc_words_per_packet", "words");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
    ("goodput_mbps", "Mbps");
  ]

let per_layer =
  [
    ("sim_s_per_wall_s", "sim-s/s");
    ("packets_per_wall_s", "pkt/s");
    ("flow_sim_s_per_wall_s", "flow-sim-s/s");
    ("bench.ref_kernel_s", "s");
    ("engine.events", "count");
    ("engine.events_per_packet", "events/pkt");
    ("engine.ns_per_event", "ns");
    ("link.packets_in", "count");
    ("link.drops_tail", "count");
    ("link.drops_error", "count");
    ("pool.live_delta", "count");
    ("pool.ns_per_acquire_release", "ns");
    ("trace.records", "count");
    ("trace.digest_ns_per_record", "ns");
    ("trace.digest_words_per_record", "words");
    ("trace.digest_time_share", "ratio");
    ("trace.digest_alloc_share", "ratio");
    ("invariants.ns_per_record", "ns");
    ("midnode.ns_per_packet_plr0", "ns");
    ("midnode.ns_per_packet_plr1", "ns");
    ("cache.ns_per_op", "ns");
    ("cache.hits", "count");
    ("cache.misses", "count");
    ("cache.hit_ratio", "ratio");
    ("pit.pending_end", "count");
    ("consumer.interests_sent", "count");
    ("consumer.interest_retx", "count");
    ("consumer.retx_ratio", "ratio");
    ("consumer.owd_p50_ms", "ms");
    ("consumer.owd_p99_ms", "ms");
    ("tcp.ns_per_packet", "ns");
    ("tcp.alloc_words_per_packet", "words");
    ("walker.create_s", "s");
    ("route.ms_per_compute", "ms");
    ("route.words_per_compute", "words");
    ("route.queries", "count");
    ("route.computes", "count");
    ("route.memo_hit_ratio", "ratio");
    ("workload.generate_s", "s");
    ("fleet.flows_started", "count");
    ("fleet.flows_completed", "count");
    ("fleet.flows_skipped", "count");
    ("fleet.peak_active", "count");
    ("pathtrace.generate_s", "s");
    ("pathtrace.replay_s", "s");
    ("pathtrace.handovers", "count");
    ("pathtrace.outage_fraction", "ratio");
    ("dynamic_path.switches", "count");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_packet", "words");
    ("bench.traced_overhead", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Failure accounting: every iteration and set-up repetition is one
   operation, and so is every flow a manyflow iteration offers.  A
   failed check never aborts the run; it is counted with a one-line
   reason. *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first *)
}

let tally () = { attempted = 0; failed = 0; reasons = [] }

let fail t ~count reason =
  t.failed <- t.failed + count;
  t.reasons <- reason :: t.reasons

let record t problems =
  t.attempted <- t.attempted + 1;
  if problems <> [] then fail t ~count:1 (String.concat "; " problems)

let guarded f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let iteration ?(first = false) t (w : W.t) ~reference =
  match guarded (if first then w.W.reference else w.W.iterate) with
  | Error e ->
    record t [ Printf.sprintf "%s: iteration raised %s" w.W.name e ];
    None
  | Ok s ->
    let drift =
      match reference with
      | Some r when r <> s.W.fingerprint ->
        [ w.W.name ^ ": digest or simulated summary differs from the reference iteration" ]
      | _ -> []
    in
    record t (s.W.problems @ drift);
    t.attempted <- t.attempted + s.W.offered;
    let lost = s.W.offered - s.W.completed in
    if lost > 0 then
      fail t ~count:lost
        (Printf.sprintf "%s: %d of %d offered flows did not complete" w.W.name
           lost s.W.offered);
    Some s

(* Set-up repetitions, timed part by part in reference seconds (the
   host-speed kernel runs ahead of each group).  Host speed on a shared
   VM drifts over seconds, so the repetitions are also spread over the
   run in [setup_slots] groups: one before the reference iteration and
   one before each of the first timed iterations (any left over run
   after the loop).  [finish] gives the median of the summed parts and
   the median of each part by name. *)
let setup_slots = 6

type setup = {
  mutable left : int;
  per_slot : int;
  mutable reps : (string * float) list list;
}

let setup_plan (w : W.t) =
  {
    left = w.W.setup_reps;
    per_slot = (w.W.setup_reps + setup_slots - 1) / setup_slots;
    reps = [];
  }

let setup_group t (w : W.t) plan =
  let kernel_s = if plan.left > 0 then Hostref.time () else 1.0 in
  let one () =
    List.map
      (fun (name, f) ->
        match guarded (fun () -> snd (W.measure (fun () -> Spans.span name f))) with
        | Ok c ->
          record t [];
          (name, Hostref.to_ref_s ~kernel_s c.W.wall_s)
        | Error e ->
          record t [ Printf.sprintf "%s: set-up %s raised %s" w.W.name name e ];
          (name, 0.0))
      w.W.setup_parts
  in
  let n = min plan.per_slot plan.left in
  plan.left <- plan.left - n;
  for _ = 1 to n do
    plan.reps <- one () :: plan.reps
  done

let setup_finish t w plan =
  while plan.left > 0 do
    setup_group t w plan
  done;
  ( median
      (List.map (fun parts -> List.fold_left (fun a (_, s) -> a +. s) 0.0 parts) plan.reps),
    List.map
      (fun (name, _) -> (name, median (List.map (List.assoc name) plan.reps)))
      w.W.setup_parts )

(* One timed iteration and the host speed around it: [kernel_s] is the
   mean time of the {!Hostref} kernel run just before and just after. *)
type timed = { i : int; sample : W.sample; kernel_s : float }

(* A set-up group, the reference iteration, then timed iterations until
   [seconds] have passed (at least [min_samples]), the first ones each
   after a set-up group; [before i] runs ahead of timed iteration [i].
   Every timed iteration must reproduce the reference's fingerprint
   (the first timed one's, if the reference raised).  Each iteration
   starts from a compacted heap, so garbage left by the previous one
   neither slows it down nor moves its heap high-water mark; then the
   host-speed kernel runs.  Neither is timed as part of the iteration. *)
let run_iterations ?(before = fun _ -> ()) t w plan ~seconds ~min_samples =
  setup_group t w plan;
  Gc.compact ();
  let first = iteration ~first:true t w ~reference:None in
  let reference = ref (Option.map (fun s -> s.W.fingerprint) first) in
  let stop = Unix.gettimeofday () +. seconds in
  let rec go i acc =
    if i >= min_samples && Unix.gettimeofday () >= stop then (acc, Hostref.time ())
    else begin
      setup_group t w plan;
      before i;
      Gc.compact ();
      let kernel_s = Hostref.time () in
      match iteration t w ~reference:!reference with
      | Some s ->
        if !reference = None then reference := Some s.W.fingerprint;
        go (i + 1) ((i, s, kernel_s) :: acc)
      | None -> go (i + 1) acc
    end
  in
  (* Newest first: each iteration's "after" is the next one's "before". *)
  let rec bracket after acc = function
    | [] -> acc
    | (i, sample, before) :: rest ->
      bracket before ({ i; sample; kernel_s = (before +. after) /. 2.0 } :: acc) rest
  in
  let newest_first, last_ref = go 0 [] in
  (first, bracket last_ref [] newest_first)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let packets (s : W.sample) = float_of_int (max 1 s.W.cost.W.packets)

(* Simulated work per host second, or per reference second: the
   iteration's wall time rescaled by the {!Hostref} kernel's time around
   it, so host-speed drift cancels. *)
let rates ~seconds timed =
  let rate f = median (List.map (fun x -> f x.sample /. seconds x) timed) in
  [
    rate (fun s -> s.W.sim_s);
    rate (fun s -> float_of_int s.W.cost.W.packets);
    rate (fun s -> s.W.flow_sim_s);
  ]

let wall_rates timed =
  List.combine
    [ "sim_s_per_wall_s"; "packets_per_wall_s"; "flow_sim_s_per_wall_s" ]
    (rates ~seconds:(fun x -> x.sample.W.cost.W.wall_s) timed)

let e2e_metrics ~setup_s timed =
  let med f = median (List.map (fun x -> f x.sample) timed) in
  List.combine
    [ "sim_s_per_ref_s"; "packets_per_ref_s"; "flow_sim_s_per_ref_s" ]
    (rates
       ~seconds:(fun x -> Hostref.to_ref_s ~kernel_s:x.kernel_s x.sample.W.cost.W.wall_s)
       timed)
  @ [
      ("alloc_words_per_packet", med (fun s -> s.W.cost.W.alloc_words /. packets s));
      ("peak_heap_mb", peak_heap_mb ());
      ("setup_s", setup_s);
      ("goodput_mbps", med (fun s -> s.W.goodput_mbps));
    ]

type result = {
  tally : tally;
  metrics : (string * float) list;
  units : (string * string) list;
  notes : string list;  (** human-readable lines for stderr *)
}

let min_samples = 3

let plain ~seconds (w : W.t) =
  let t = tally () in
  let plan = setup_plan w in
  let timed = snd (run_iterations t w plan ~seconds ~min_samples) in
  let setup_s, _ = setup_finish t w plan in
  let walls = List.map (fun x -> x.sample.W.cost.W.wall_s) timed in
  let show l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  {
    tally = t;
    metrics = e2e_metrics ~setup_s timed;
    units = end_to_end;
    notes =
      [
        Printf.sprintf "%s: %d timed iterations, wall median %.4f s; walls: %s"
          w.W.name (List.length timed) (median walls) (show walls);
        Printf.sprintf "host-speed kernel around each: %s s"
          (show (List.map (fun x -> x.kernel_s) timed));
      ]
      @ List.map
          (fun (name, v) -> Printf.sprintf "  (raw) %-26s %16.6g" name v)
          (wall_rates timed);
  }

(* ------------------------------------------------------------------ *)

let ratio a b = if b > 0.0 then a /. b else 0.0

let traced ~size ~seed ~seconds (w : W.t) =
  Spans.reset ();
  Spans.enabled := true;
  let t = tally () in
  let plan = setup_plan w in
  (* Even iterations record spans, odd ones do not: the median ratio of
     each traced iteration to the untraced one after it is what
     recording costs.  Pairing neighbours keeps host-speed drift out. *)
  let first, timed =
    run_iterations t w plan ~seconds ~min_samples:4
      ~before:(fun i -> Spans.enabled := i mod 2 = 0)
  in
  Spans.enabled := true;
  let _, parts = setup_finish t w plan in
  let overhead =
    let wall i =
      List.find_map
        (fun x -> if x.i = i then Some x.sample.W.cost.W.wall_s else None)
        timed
    in
    median
      (List.filter_map
         (fun x ->
           match (wall x.i, wall (x.i + 1)) with
           | Some on, Some off when x.i mod 2 = 0 -> Some ((on /. off) -. 1.0)
           | _ -> None)
         timed)
  in
  let last =
    match List.rev timed with x :: _ -> Some x.sample | [] -> first
  in
  let values = Hashtbl.create 64 in
  let set (k, v) = Hashtbl.replace values k v in
  let get k = Option.value ~default:0.0 (Hashtbl.find_opt values k) in
  List.iter set parts;
  Option.iter
    (fun (s : W.sample) ->
      List.iter set s.W.counters;
      set ("consumer.owd_p50_ms", s.W.owd_p50_ms);
      set ("consumer.owd_p99_ms", s.W.owd_p99_ms);
      set ("gc.minor_collections", float_of_int s.W.cost.W.minor_collections);
      set ("gc.major_collections", float_of_int s.W.cost.W.major_collections);
      set ("gc.promoted_words_per_packet", s.W.cost.W.promoted_words /. packets s))
    last;
  set ("bench.traced_overhead", overhead);
  List.iter set (wall_rates timed);
  set ("bench.ref_kernel_s", median (List.map (fun x -> x.kernel_s) timed));
  let problems = ref [] in
  let layer f = match guarded f with
    | Ok kvs -> List.iter set kvs
    | Error e -> problems := ("per-layer measurement raised " ^ e) :: !problems
  in
  layer (fun () -> Layers.kernels ~size);
  layer (fun () -> Layers.route_kernel ~size ~seed);
  let chain_ab = ref None and tcp_ab = ref None in
  layer (fun () ->
      let ab, inv_ns = Layers.chain_ab ~size ~seed in
      chain_ab := Some ab;
      ("invariants.ns_per_record", inv_ns) :: Layers.ab_metrics ab);
  layer (fun () ->
      let kvs, ab = Layers.tcp_ab ~size ~seed in
      tcp_ab := Some ab;
      kvs);
  (match (w.W.name, last, !chain_ab, !tcp_ab) with
  | "pathtrace", Some s, _, _ ->
    layer (fun () -> Layers.pathtrace_memo ~size ~seed);
    layer (fun () ->
        let tr = Option.get (w.W.input_trace ()) in
        let ab, counters, ps = Layers.pathtrace_ab ~size ~digest:s.W.digest tr in
        problems := ps @ !problems;
        counters @ Layers.ab_metrics ab);
    set ("pathtrace.replay_s", median (List.map (fun x -> x.sample.W.cost.W.wall_s) timed))
  | "manyflow", Some s, Some leotp, Some tcp ->
    layer (fun () ->
        Layers.manyflow_digest_estimate ~leotp ~tcp
          ~tcp_share:(W.manyflow_spec ~size ~seed).W.Fleet.workload.W.Workload.tcp_share
          ~events:(int_of_float (get "engine.events"))
          ~ref_s:
            (median
               (List.map
                  (fun x -> Hostref.to_ref_s ~kernel_s:x.kernel_s x.sample.W.cost.W.wall_s)
                  timed))
          ~alloc_words:s.W.cost.W.alloc_words)
  | _ -> ());
  record t (List.rev !problems);
  set ("engine.events_per_packet",
       ratio (get "engine.events") (Option.fold ~none:1.0 ~some:packets last));
  set ("cache.hit_ratio", ratio (get "cache.hits") (get "cache.hits" +. get "cache.misses"));
  set ("consumer.retx_ratio", ratio (get "consumer.interest_retx") (get "consumer.interests_sent"));
  if get "route.queries" > 0.0 then
    set ("route.memo_hit_ratio", 1.0 -. ratio (get "route.computes") (get "route.queries"));
  let self_times =
    List.map
      (fun (name, s) -> Printf.sprintf "  self %-36s %10.4f s" name s)
      (Spans.self_times ())
  in
  {
    tally = t;
    metrics = List.map (fun (name, _) -> (name, get name)) per_layer;
    units = per_layer;
    notes = (w.W.name ^ ": span self times (traced run)") :: self_times;
  }

(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line r =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      (List.assoc name r.units)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.tally.failed = 0) r.tally.attempted r.tally.failed
    (String.concat ", " (List.map metric r.metrics))
