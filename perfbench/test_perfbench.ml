(* The benchmark's own tests, on shrunk workloads: determinism per seed,
   failure accounting with planted bad iterations, and agreement between
   the metrics the command prints and the names BENCHMARK.json declares. *)

module W = Perfbench.Workloads
module M = Perfbench.Measure
module Path_trace = Leotp_net.Path_trace
module Pathtrace = Leotp_scenario.Pathtrace
module Workload = Leotp_scenario.Workload
module Fleet = Leotp_scenario.Fleet

let size = W.tiny
let make ?(seed = 3) name = Option.get (W.make ~size ~seed name)

(* ------------------------------------------------------------------ *)

let test_same_seed_repeats name () =
  let a = (make name).W.iterate () and b = (make name).W.iterate () in
  Alcotest.(check string) "fingerprint" a.W.fingerprint b.W.fingerprint;
  Alcotest.(check (list (pair string (float 0.0)))) "counters" a.W.counters b.W.counters;
  Alcotest.(check (float 0.0)) "goodput" a.W.goodput_mbps b.W.goodput_mbps;
  Alcotest.(check (float 0.0)) "owd p99" a.W.owd_p99_ms b.W.owd_p99_ms;
  Alcotest.(check int) "packets" a.W.cost.W.packets b.W.cost.W.packets;
  Alcotest.(check (list string)) "no failed check" [] a.W.problems;
  (* The reference iteration attaches the workload's checkers; observers
     must not perturb the simulation. *)
  let r = (make name).W.reference () in
  Alcotest.(check string) "reference fingerprint" a.W.fingerprint r.W.fingerprint;
  Alcotest.(check (list string)) "reference passes its checks" [] r.W.problems

let test_manyflow_seed_changes_schedule () =
  let schedule seed =
    Workload.generate (W.manyflow_spec ~size ~seed).Fleet.workload
  in
  Alcotest.(check bool) "same seed, same schedule" true (schedule 1 = schedule 1);
  Alcotest.(check bool) "other seed, other schedule" false (schedule 1 = schedule 2)

(* ------------------------------------------------------------------ *)
(* Planted failures *)

let blank_sample ?(problems = []) () =
  {
    W.cost = snd (W.measure ignore);
    sim_s = 1.0;
    flow_sim_s = 1.0;
    goodput_mbps = 1.0;
    owd_p50_ms = 1.0;
    owd_p99_ms = 1.0;
    offered = 0;
    completed = 0;
    digest = "";
    fingerprint = "same";
    problems;
    counters = [];
  }

let fake ?reference iterate =
  {
    W.name = "fake";
    setup_parts = [ ("fake.setup", ignore) ];
    setup_reps = 1;
    reference = Option.value ~default:iterate reference;
    iterate;
    input_trace = (fun () -> None);
  }

let test_planted_pool_leak () =
  let n = ref 0 in
  let w =
    fake (fun () ->
        incr n;
        let pool_live_delta = if !n = 2 then 1 else 0 in
        blank_sample ~problems:(W.leak_problems ~pool_live_delta ~pit_pending:0) ())
  in
  let r = M.plain ~seconds:0.0 w in
  Alcotest.(check int) "one failed operation" 1 r.M.tally.M.failed;
  (* set-up + reference + three timed iterations *)
  Alcotest.(check int) "attempted" 5 r.M.tally.M.attempted;
  Alcotest.(check bool) "reason names the leak" true
    (List.exists
       (fun s -> String.starts_with ~prefix:"pool_live_delta = 1" s)
       r.M.tally.M.reasons);
  Alcotest.(check bool) "result says incorrect" true
    (String.starts_with ~prefix:"{\"correct\": false, \"attempted\": 5, \"failed\": 1,"
       (M.result_line r))

let test_raising_iteration_is_counted () =
  let n = ref 0 in
  let w =
    fake (fun () ->
        incr n;
        if !n = 3 then failwith "planted" else blank_sample ())
  in
  let r = M.plain ~seconds:0.0 w in
  Alcotest.(check int) "one failed operation" 1 r.M.tally.M.failed

let test_planted_bad_trace_line () =
  let tr =
    Pathtrace.generate { (W.pathtrace_spec ~size ~seed:3) with Pathtrace.horizon = 10.0 }
  in
  let lines = String.split_on_char '\n' (Path_trace.to_string tr) in
  let mutated =
    String.concat "\n"
      (List.mapi
         (fun i l -> if i = 2 then String.sub l 0 (String.length l / 2) else l)
         lines)
  in
  let problems =
    match W.roundtrip mutated with Ok _ -> [] | Error e -> [ e ]
  in
  Alcotest.(check int) "one problem" 1 (List.length problems);
  Alcotest.(check bool) "intact text round-trips" true
    (Result.is_ok (W.roundtrip (Path_trace.to_string tr)));
  let w =
    fake ~reference:(fun () -> blank_sample ~problems ()) (fun () -> blank_sample ())
  in
  let r = M.plain ~seconds:0.0 w in
  Alcotest.(check int) "one failed operation" 1 r.M.tally.M.failed

(* ------------------------------------------------------------------ *)
(* Printed metrics = BENCHMARK.json metrics *)

(* The (name, unit) pairs of one array of BENCHMARK.json.  The file is
   flat enough that scanning for "name"/"unit" keys inside the array's
   brackets is exact. *)
let declared section =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 (Printf.sprintf "%S" section)) in
  let stop = Option.get (find_from start "]") in
  let value_after i key =
    match find_from i (Printf.sprintf "%S: \"" key) with
    | Some j when j < stop ->
      let v0 = j + String.length key + 5 in
      let v1 = String.index_from text v0 '"' in
      Some (String.sub text v0 (v1 - v0), v1)
    | _ -> None
  in
  let rec pairs i acc =
    match value_after i "name" with
    | None -> List.rev acc
    | Some (name, j) -> (
      match value_after j "unit" with
      | Some (unit, k) -> pairs k ((name, unit) :: acc)
      | None -> List.rev acc)
  in
  pairs start []

let sorted l = List.sort compare l

let test_declared_tables () =
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted M.end_to_end) (sorted (declared "end_to_end"));
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted M.per_layer) (sorted (declared "per_layer"))

let printed r = sorted (List.map (fun (n, _) -> (n, List.assoc n r.M.units)) r.M.metrics)

let test_plain_prints_declared name () =
  let r = M.plain ~seconds:0.0 (make name) in
  Alcotest.(check (list string)) "no failed operation" [] r.M.tally.M.reasons;
  Alcotest.(check (list (pair string string)))
    "printed = declared" (sorted (declared "end_to_end")) (printed r);
  List.iter
    (fun (n, v) ->
      if not (v > 0.0) then Alcotest.failf "end-to-end metric %s is %g" n v)
    r.M.metrics

let test_traced_prints_declared name () =
  let r = M.traced ~size ~seed:3 ~seconds:0.0 (make name) in
  Perfbench.Spans.enabled := false;
  Alcotest.(check (list string)) "no failed operation" [] r.M.tally.M.reasons;
  Alcotest.(check (list (pair string string)))
    "printed = declared" (sorted (declared "per_layer")) (printed r);
  Alcotest.(check bool) "spans recorded" true (Perfbench.Spans.all () <> [])

let () =
  let per_workload f = List.map (fun n -> Alcotest.test_case n `Quick (f n)) W.names in
  Alcotest.run "perfbench"
    [
      ("same seed repeats", per_workload test_same_seed_repeats);
      ( "seed",
        [ Alcotest.test_case "manyflow schedule follows the seed" `Quick
            test_manyflow_seed_changes_schedule ] );
      ( "planted failures",
        [
          Alcotest.test_case "pool leak counted once" `Quick test_planted_pool_leak;
          Alcotest.test_case "raising iteration counted" `Quick
            test_raising_iteration_is_counted;
          Alcotest.test_case "corrupt trace line counted" `Quick
            test_planted_bad_trace_line;
        ] );
      ("declared", [ Alcotest.test_case "tables match BENCHMARK.json" `Quick test_declared_tables ]);
      ("plain run prints end_to_end", per_workload test_plain_prints_declared);
      ("traced run prints per_layer", per_workload test_traced_prints_declared);
    ]
