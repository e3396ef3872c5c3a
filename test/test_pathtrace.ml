(* TRACE_PATH schema round-trip / diagnostics, and the trace-driven
   replay determinism contract (replay digest == live-generation
   digest). *)

module Path_trace = Leotp_net.Path_trace
module Pathtrace = Leotp_scenario.Pathtrace

let mk_meta ?(seed = 7) ?(src = "Beijing") ?(dst = "Shanghai")
    ?(isls = false) ?(step = 1.0) ?(horizon = 10.0) () =
  { Path_trace.seed; src; dst; isls; step; horizon }

let hop ?(delay = 0.004) ?(bw = 10.0) ?(plr = 0.01) ?(kind = Path_trace.Gsl)
    () =
  { Path_trace.delay; bw_mbps = bw; plr; kind }

let route ?(ho = false) time hops =
  { Path_trace.time; event = Path_trace.Route { hops; handover = ho } }

let dark time = { Path_trace.time; event = Path_trace.No_route }

let mk ?meta records =
  let meta = match meta with Some m -> m | None -> mk_meta () in
  { Path_trace.meta; records }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* First-occurrence replacement, enough to corrupt canonical output. *)
let replace ~sub ~by s =
  let ns = String.length s and nsub = String.length sub in
  let rec find i =
    if i + nsub > ns then None
    else if String.sub s i nsub = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "replace: %S not found" sub
  | Some i ->
    String.sub s 0 i ^ by ^ String.sub s (i + nsub) (ns - i - nsub)

(* ------------------------------------------------------------------ *)
(* Canonical writer / strict parser *)

let test_write_parse_fixture () =
  let tr =
    mk
      [
        route 0.0 [| hop (); hop ~kind:Path_trace.Isl ~plr:0.001 () |];
        dark 1.0;
        route ~ho:true 2.0 [| hop ~delay:0.005 ~bw:7.25 () |];
      ]
  in
  let s = Path_trace.to_string tr in
  (match Path_trace.of_string s with
  | Error m -> Alcotest.failf "fixture failed to parse: %s" m
  | Ok parsed ->
    Alcotest.(check string) "byte-identical reprint" s
      (Path_trace.to_string parsed);
    Alcotest.(check int) "routes" 2 (Path_trace.route_count parsed);
    Alcotest.(check int) "handovers" 1 (Path_trace.handover_count parsed);
    Alcotest.(check int) "max hops" 2 (Path_trace.max_hop_count parsed));
  (* String fields with the two supported escapes round-trip too. *)
  let tr = mk ~meta:(mk_meta ~src:"A\"B\\C" ~dst:"x y" ()) [ dark 0.0 ] in
  let s = Path_trace.to_string tr in
  match Path_trace.of_string s with
  | Error m -> Alcotest.failf "escaped fixture failed to parse: %s" m
  | Ok parsed ->
    Alcotest.(check string) "escaped src" "A\"B\\C"
      parsed.Path_trace.meta.Path_trace.src;
    Alcotest.(check string) "escaped reprint" s (Path_trace.to_string parsed)

let expect_error ~substring s =
  match Path_trace.of_string s with
  | Ok _ -> Alcotest.failf "parse unexpectedly succeeded (want %S)" substring
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" m substring)
      true (contains m substring)

let test_malformed_diagnostics () =
  let good =
    Path_trace.to_string
      (mk [ route 0.0 [| hop () |]; route 1.0 [| hop () |]; dark 2.0 ])
  in
  (* A misspelled key: the error names the offending line.  [good] has
     one "plr" per route record; the first sits on line 2. *)
  expect_error ~substring:"line 2" (replace ~sub:"\"plr\"" ~by:"\"plx\"" good);
  (* Out-of-range values. *)
  expect_error ~substring:"[0, 1]" (replace ~sub:"\"plr\":0.01" ~by:"\"plr\":1.5" good);
  expect_error ~substring:"positive" (replace ~sub:"\"bw\":10" ~by:"\"bw\":0" good);
  expect_error ~substring:"link kind" (replace ~sub:"\"k\":\"gsl\"" ~by:"\"k\":\"lsr\"" good);
  (* Non-finite and non-numeric fields. *)
  expect_error ~substring:"finite" (replace ~sub:"\"t\":1" ~by:"\"t\":1e999" good);
  expect_error ~substring:"number" (replace ~sub:"\"t\":1" ~by:"\"t\":x" good);
  (* Times must be strictly increasing. *)
  expect_error ~substring:"strictly increasing"
    (replace ~sub:"\"t\":1" ~by:"\"t\":0" good);
  (* Trailing garbage on a line. *)
  expect_error ~substring:"line 4" (replace ~sub:"true}\n" ~by:"true} \n" good);
  (* Truncated line. *)
  expect_error ~substring:"line 3" (replace ~sub:"\"ho\":false}\n{\"t\":2" ~by:"\"ho\":fal\n{\"t\":2" good);
  (* Empty input. *)
  expect_error ~substring:"line 1" "";
  (* Unknown schema. *)
  expect_error ~substring:"unknown schema"
    (replace ~sub:"\"schema\":\"TRACE_PATH\"" ~by:"\"schema\":\"TRACE_PKT\"" good)

let test_version_mismatch () =
  let good = Path_trace.to_string (mk [ dark 0.0 ]) in
  expect_error ~substring:"unsupported TRACE_PATH version 2"
    (replace ~sub:"\"version\":1" ~by:"\"version\":2" good)

(* ------------------------------------------------------------------ *)
(* QCheck: write -> parse -> write is the identity on bytes for any
   valid trace. *)

let trace_gen =
  let open QCheck2 in
  let hop_gen =
    Gen.(
      let* delay = float_range 0.0 0.2 in
      let* bw = float_range 0.1 200.0 in
      let* plr = float_range 0.0 1.0 in
      let* kind = oneofl [ Path_trace.Gsl; Path_trace.Isl ] in
      pure { Path_trace.delay; bw_mbps = bw; plr; kind })
  in
  let event_gen =
    Gen.(
      let* is_dark = frequency [ (1, pure true); (3, pure false) ] in
      if is_dark then pure Path_trace.No_route
      else
        let* hops = array_size (int_range 1 4) hop_gen in
        let* handover = bool in
        pure (Path_trace.Route { hops; handover }))
  in
  Gen.(
    let* seed = int_range 0 10_000 in
    let* src = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* dst = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* isls = bool in
    let* step = float_range 0.01 10.0 in
    let* horizon = float_range 0.0 100.0 in
    let* t0 = float_range 0.0 1.0 in
    let* increments = list_size (int_bound 30) (float_range 0.001 5.0) in
    let* events = list_size (pure (List.length increments + 1)) event_gen in
    let times =
      List.rev
        (List.fold_left (fun acc dt -> (List.hd acc +. dt) :: acc) [ t0 ]
           increments)
    in
    let records =
      List.map2 (fun time event -> { Path_trace.time; event }) times events
    in
    pure
      {
        Path_trace.meta = { Path_trace.seed; src; dst; isls; step; horizon };
        records;
      })

let roundtrip_prop =
  let open QCheck2 in
  Test.make ~name:"write -> parse -> write is byte-identical" ~count:200
    ~print:(fun tr -> Path_trace.to_string tr)
    trace_gen
    (fun tr ->
      let s = Path_trace.to_string tr in
      match Path_trace.of_string s with
      | Error m -> Test.fail_reportf "valid trace rejected: %s" m
      | Ok parsed -> String.equal s (Path_trace.to_string parsed))

(* ------------------------------------------------------------------ *)
(* Derived outage statistics *)

let test_outage_stats () =
  let tr =
    mk
      [
        route 0.0 [| hop () |];
        dark 1.0;
        dark 2.0;
        route 3.0 [| hop () |];
        dark 4.0;
      ]
  in
  (match Path_trace.outage_intervals tr with
  | [ (a1, b1); (a2, b2) ] ->
    (* First run closes at the next route sample; the trailing run
       closes one step past its last dark sample. *)
    Alcotest.(check (float 1e-9)) "run 1 start" 1.0 a1;
    Alcotest.(check (float 1e-9)) "run 1 stop" 3.0 b1;
    Alcotest.(check (float 1e-9)) "run 2 start" 4.0 a2;
    Alcotest.(check (float 1e-9)) "run 2 stop" 5.0 b2
  | l -> Alcotest.failf "expected 2 intervals, got %d" (List.length l));
  Alcotest.(check (float 1e-9)) "fraction" 0.6 (Path_trace.outage_fraction tr);
  Alcotest.(check (list (float 1e-9)))
    "no dark, no intervals" []
    (List.map fst (Path_trace.outage_intervals (mk [ route 0.0 [| hop () |] ])))

(* ------------------------------------------------------------------ *)
(* Generator determinism and the replay contract.  One short bent-pipe
   pair keeps this a few seconds of wall clock. *)

let quick_spec =
  {
    Pathtrace.src = "Beijing";
    dst = "Shanghai";
    isls = false;
    horizon = 30.0;
    step = 1.0;
    route_epoch = 1.0;
    seed = 11;
  }

let test_generate_deterministic () =
  let a = Path_trace.to_string (Pathtrace.generate quick_spec) in
  let b = Path_trace.to_string (Pathtrace.generate quick_spec) in
  Alcotest.(check string) "same spec, same bytes" a b;
  let c =
    Path_trace.to_string (Pathtrace.generate { quick_spec with seed = 12 })
  in
  Alcotest.(check bool) "seed reaches the trace" false (String.equal a c)

let test_replay_digest_matches_live () =
  let tr = Pathtrace.generate quick_spec in
  Alcotest.(check bool) "trace has routes" true (Path_trace.route_count tr > 0);
  let live = Pathtrace.run tr in
  let reparsed =
    match Path_trace.of_string (Path_trace.to_string tr) with
    | Ok t -> t
    | Error m -> Alcotest.failf "reparse failed: %s" m
  in
  let replay = Pathtrace.run reparsed in
  Alcotest.(check string) "digest (replay == live)" live.Pathtrace.digest
    replay.Pathtrace.digest;
  Alcotest.(check int) "switch count agrees" live.Pathtrace.switches
    replay.Pathtrace.switches;
  (* The digest is a real witness: a different transport seed diverges. *)
  let other = Pathtrace.run ~seed:999 tr in
  Alcotest.(check bool) "seed matters" false
    (String.equal live.Pathtrace.digest other.Pathtrace.digest)

(* A path that goes dark halfway strands Interests in the midnode PITs:
   the replay must sweep them at end of run, like every other runner,
   or the self-checking invariants report an entry leaked past expiry. *)
let test_outage_replay_self_checks () =
  let gsl = [| hop (); hop (); hop () |] in
  let tr =
    mk
      ~meta:(mk_meta ~horizon:20.0 ())
      (List.init 20 (fun i ->
           let t = float_of_int i in
           if i < 10 then route t gsl else dark t))
  in
  let saved = Atomic.get Leotp_scenario.Invariants.self_check in
  Atomic.set Leotp_scenario.Invariants.self_check true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Leotp_scenario.Invariants.self_check saved)
    (fun () ->
      let r = Pathtrace.run ~label:"outage" tr in
      Alcotest.(check int) "one outage" 1 r.Pathtrace.outages)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_pathtrace"
    [
      ( "schema",
        [
          Alcotest.test_case "write/parse fixture" `Quick
            test_write_parse_fixture;
          Alcotest.test_case "malformed diagnostics" `Quick
            test_malformed_diagnostics;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          qc roundtrip_prop;
        ] );
      ( "stats",
        [ Alcotest.test_case "outage intervals" `Quick test_outage_stats ] );
      ( "replay",
        [
          Alcotest.test_case "generate deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "replay digest == live" `Quick
            test_replay_digest_matches_live;
          Alcotest.test_case "outage replay self-checks" `Quick
            test_outage_replay_self_checks;
        ] );
    ]
