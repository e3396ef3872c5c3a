(* Fixture tests for the leotp-dim interprocedural dimensional-analysis
   pass (lib/lint/dim.ml).

   Each fixture is an in-memory source handed to Dim.analyze_sources
   under a lib/ path (dim findings are scoped to lib/).  The seeded
   signatures referenced here (Engine.now, Engine.schedule ~after,
   Units conversions, Cc.fmss, Link.current_rate, ...) are matched by
   name suffix, so the fixtures just use the dotted names. *)

module Dim = Leotp_lint.Dim
module Finding = Leotp_lint.Finding

let analyze ?(path = "lib/core/fixture.ml") src =
  Dim.analyze_sources [ (path, src) ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_one ~rule ?witness fs =
  let hits = List.filter (fun (f : Finding.t) -> f.rule = rule) fs in
  Alcotest.(check int)
    (Printf.sprintf "exactly one %s finding" rule)
    1 (List.length hits);
  match (witness, hits) with
  | Some w, [ f ] ->
    if not (contains f.message w) then
      Alcotest.failf "finding message %S does not contain %S" f.message w
  | _ -> ()

let check_clean ~rule fs =
  let hits = List.filter (fun (f : Finding.t) -> f.rule = rule) fs in
  if hits <> [] then
    Alcotest.failf "expected no %s findings, got: %s" rule
      (String.concat "; "
         (List.map (fun (f : Finding.t) -> f.message) hits))

let check_none fs =
  if fs <> [] then
    Alcotest.failf "expected no findings, got: %s"
      (String.concat "; " (List.map Finding.to_text fs))

(* ------------------------------------------------------------------ *)
(* dim-mixed-arith *)

let mixed_add () =
  let fs =
    analyze
      {|
let bad engine m = Leotp_sim.Engine.now engine +. Leotp_tcp.Cc.fmss m
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"seconds" fs

let mixed_compare () =
  let fs =
    analyze
      {|
let bad engine l = Leotp_sim.Engine.now engine < Leotp_net.Link.current_rate l
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"bytes_per_seconds" fs

let mixed_minmax () =
  let fs =
    analyze
      {|
let bad engine m = Float.max (Leotp_sim.Engine.now engine) (Leotp_tcp.Cc.fmss m)
|}
  in
  check_one ~rule:"dim-mixed-arith" fs

let clean_same_unit () =
  let fs =
    analyze
      {|
let owd engine p = Leotp_sim.Engine.now engine -. Leotp.Wire.timestamp p
let fresh engine p = owd engine p < Leotp_util.Rto.rto p
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* conversions: clean via Units, flagged when raw *)

let clean_units_conversion () =
  let fs =
    analyze
      {|
let report engine = Leotp_util.Units.sec_to_ms (Leotp_sim.Engine.now engine)
|}
  in
  check_none fs

let raw_sec_to_ms () =
  let fs = analyze {|
let bad engine = Leotp_sim.Engine.now engine *. 1000.0
|} in
  check_one ~rule:"dim-raw-conversion" ~witness:"Units.sec_to_ms" fs

let raw_literal_first () =
  let fs = analyze {|
let bad engine = 1000.0 *. Leotp_sim.Engine.now engine
|} in
  check_one ~rule:"dim-raw-conversion" ~witness:"sec_to_ms" fs

let raw_bits_div () =
  let fs =
    analyze
      {|
let bad p = Leotp_util.Units.bytes_to_bits (Leotp.Wire.send_rate p) /. 8.0
|}
  in
  (* bytes/s -> bits via helper is fine; the /. 8.0 on the resulting
     bits re-derives bits_to_bytes *)
  check_one ~rule:"dim-raw-conversion" ~witness:"bits_to_bytes" fs

let scalar_divide_not_conversion () =
  (* srtt /. 8.0 is a heuristic eighth of a duration, not a unit
     conversion: seconds pairs with no /. 8 table entry *)
  let fs =
    analyze
      {|
let smooth r = match Leotp_util.Rto.srtt r with
  | Some s -> s /. 8.0
  | None -> 0.0
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* interprocedural propagation *)

let interprocedural_chain () =
  (* The ms value flows through two intermediate helpers before hitting
     the seeded ~after:seconds slot. *)
  let fs =
    analyze
      {|
let helper engine d = ignore (Leotp_sim.Engine.schedule engine ~after:d (fun () -> ()))
let outer engine d2 = helper engine d2
let bad engine s = outer engine (Leotp_util.Units.sec_to_ms s)
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"helper" fs;
  check_one ~rule:"dim-mixed-arith" ~witness:"outer" fs

let inference_stays_local () =
  (* A generic helper must not inherit units from its callers: clamp is
     used with seconds in one place and bytes in another — both fine. *)
  let fs =
    analyze
      {|
let clamp lo x = Float.max lo x
let a engine = clamp 0.001 (Leotp_sim.Engine.now engine)
let b m = clamp 1.0 (Leotp_tcp.Cc.fmss m)
|}
  in
  check_none fs

let cross_file_propagation () =
  let fs =
    Dim.analyze_sources
      [
        ( "lib/core/timing.ml",
          "let arm engine dt = ignore (Leotp_sim.Engine.schedule engine \
           ~after:dt (fun () -> ()))" );
        ( "lib/core/user.ml",
          "let bad engine s = Timing.arm engine (Leotp_util.Units.sec_to_ms \
           s)" );
      ]
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"Timing.arm" fs

(* ------------------------------------------------------------------ *)
(* annotation pins *)

let pin_honored_flags () =
  let fs =
    analyze
      {|
let wait engine rtt_ms = ignore (Leotp_sim.Engine.schedule engine ~after:rtt_ms (fun () -> ()))
[@@leotp.dim "ms rtt_ms"]
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"[@leotp.dim] pin" fs

let pin_honored_clean () =
  let fs =
    analyze
      {|
let wait engine dt = ignore (Leotp_sim.Engine.schedule engine ~after:dt (fun () -> ()))
[@@leotp.dim "seconds dt"]
|}
  in
  check_none fs

let returns_pin () =
  let fs =
    analyze
      {|
let budget () = 42.0 [@@leotp.dim "returns bytes"]
let bad engine = budget () +. Leotp_sim.Engine.now engine
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"budget" fs

let expression_pin () =
  let fs =
    analyze
      {|
let bad engine x = ignore (Leotp_sim.Engine.schedule engine ~after:(x [@leotp.dim "mbps"]) (fun () -> ()))
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"mbps" fs

let malformed_annotation () =
  let fs =
    analyze {|
let f x = x +. 1.0 [@@leotp.dim "furlongs x"]
|}
  in
  check_one ~rule:"dim-annotation" ~witness:"unknown unit" fs

let annotation_unknown_param () =
  let fs =
    analyze {|
let f x = x +. 1.0 [@@leotp.dim "seconds nope"]
|}
  in
  check_one ~rule:"dim-annotation" ~witness:"nope" fs

(* ------------------------------------------------------------------ *)
(* allow suppression *)

let allow_suppresses () =
  let fs =
    analyze
      {|
let bad engine m =
  (Leotp_sim.Engine.now engine +. Leotp_tcp.Cc.fmss m) [@leotp.allow "dim-mixed-arith"]
|}
  in
  check_clean ~rule:"dim-mixed-arith" fs

let file_allow_suppresses () =
  let fs =
    analyze
      {|
[@@@leotp.allow "dim-raw-conversion"]
let bad engine = Leotp_sim.Engine.now engine *. 1000.0
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* seqno misuse *)

let seqno_vs_bytes () =
  let fs =
    analyze
      {|
let bad p seq = seq +. Leotp_util.Units.bytes_to_mb (float_of_int (Leotp_net.Link.queue_bytes p))
[@@leotp.dim "seqno seq"]
|}
  in
  check_one ~rule:"dim-seqno-arith" fs

let seqno_difference_clean () =
  let fs =
    analyze
      {|
let gap a b = a - b [@@leotp.dim "seqno a, seqno b"]
let order a b = a < b [@@leotp.dim "seqno a, seqno b"]
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* products and quotients *)

let rate_times_rate () =
  let fs =
    analyze
      {|
let bad l = Leotp_net.Link.current_rate l *. Leotp_net.Link.current_rate l
|}
  in
  check_one ~rule:"dim-bad-product" ~witness:"rate times a rate" fs

let time_times_time () =
  let fs =
    analyze {|
let bad engine = Leotp_sim.Engine.now engine *. Leotp_sim.Engine.now engine
|}
  in
  check_one ~rule:"dim-bad-product" ~witness:"duration squared" fs

let rate_times_time_clean () =
  (* the bandwidth-delay product: rate x seconds = bytes, comparable
     with a window in bytes *)
  let fs =
    analyze
      {|
let bdp l engine m =
  (Leotp_net.Link.current_rate l *. Leotp_net.Link.delay l) < Leotp_tcp.Cc.initial_window m
|}
  in
  check_none fs

let quotient_derives_rate () =
  (* bytes / seconds = bytes/s: comparing against a seeded rate is
     clean, comparing against seconds flags *)
  let fs =
    analyze
      {|
let rate p engine = Leotp_util.Units.mb_to_bytes 1.0 /. Leotp_sim.Engine.now engine
let ok p engine l = rate p engine < Leotp_net.Link.current_rate l
let bad p engine = rate p engine < Leotp_sim.Engine.now engine
|}
  in
  check_one ~rule:"dim-mixed-arith" fs

let distance_over_speed_is_time () =
  let fs =
    analyze
      {|
let owd d = d /. Leotp_util.Units.speed_of_light [@@leotp.dim "meters d"]
let ok engine d = owd d +. Leotp_sim.Engine.now engine
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* witness paths & stability *)

let witness_names_seed_and_chain () =
  let fs =
    analyze
      {|
let helper engine d = ignore (Leotp_sim.Engine.schedule engine ~after:d (fun () -> ()))
let bad engine s = helper engine (Leotp_util.Units.sec_to_ms s)
|}
  in
  match List.filter (fun (f : Finding.t) -> f.rule = "dim-mixed-arith") fs with
  | [ f ] ->
    List.iter
      (fun part ->
        if not (contains f.message part) then
          Alcotest.failf "witness %S missing %S" f.message part)
      [ "seed"; "Engine.schedule"; "helper"; "Units.sec_to_ms"; "witness:" ]
  | other ->
    Alcotest.failf "expected exactly one mixed finding, got %d"
      (List.length other)

let order_independent () =
  let a =
    ( "lib/core/aaa.ml",
      "let arm engine dt = ignore (Leotp_sim.Engine.schedule engine \
       ~after:dt (fun () -> ()))" )
  in
  let b =
    ( "lib/core/zzz.ml",
      "let bad engine s = Aaa.arm engine (Leotp_util.Units.sec_to_ms s)" )
  in
  let render fs = String.concat "\n" (List.map Finding.to_text fs) in
  let out1 = render (Dim.analyze_sources [ a; b ]) in
  let out2 = render (Dim.analyze_sources [ b; a ]) in
  Alcotest.(check string) "byte-identical across input order" out1 out2;
  Alcotest.(check bool) "found the bug" true
    (contains out1 "dim-mixed-arith")

(* Two bindings of one name with different arities are two defs with a
   summary each, not one summary indexed past its end. *)
let same_name_arities () =
  check_none
    (Dim.analyze_sources
       [ ("lib/core/a.ml", "let f x = x\nlet f x y = x + y\n") ])

let bench_paths_exempt () =
  let fs =
    analyze ~path:"bench/main.ml"
      {|
let bad engine = Leotp_sim.Engine.now engine *. 1000.0
|}
  in
  check_none fs

(* ------------------------------------------------------------------ *)
(* oracle sensitivity: a deliberately planted ms-vs-s slip in a copy of
   the RTO-floor arming logic (PR 5 style: prove the pass would catch
   the real bug class).  The correct version is clean; the slipped one
   — arming the retransmission timer with sec_to_ms of the backoff —
   is flagged. *)

let planted_rto_floor_slip () =
  let correct =
    {|
let arm engine r =
  let rto = Float.max (Leotp_util.Rto.rto r) (Leotp_util.Units.ms_to_sec 200.0) in
  ignore (Leotp_sim.Engine.schedule engine ~after:rto (fun () -> ()))
|}
  in
  check_none (analyze correct);
  let slipped =
    {|
let arm engine r =
  let rto_ms = Leotp_util.Units.sec_to_ms (Leotp_util.Rto.rto r) in
  let floored = Float.max rto_ms 200.0 in
  ignore (Leotp_sim.Engine.schedule engine ~after:floored (fun () -> ()))
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"ms" (analyze slipped)

(* A typed event's delay is seconds, like a closure timer's: it goes
   through the engine's slot from a poster pinned as [Link.post] is, so
   a link that posted its propagation event in milliseconds is caught
   at the pinned [~after]. *)
let planted_post_ms_slip () =
  let poster =
    {|
let post engine h slot ~after =
  (Leotp_sim.Engine.post_delay engine).(0) <- after;
  Leotp_sim.Engine.post engine h slot
[@@leotp.dim "seconds after"]
|}
  in
  let correct =
    poster
    ^ {|
let propagate engine h l slot = post engine h slot ~after:(Leotp_net.Link.delay l)
|}
  in
  check_none (analyze correct);
  let slipped =
    poster
    ^ {|
let propagate engine h l slot =
  let d = Leotp_util.Units.sec_to_ms (Leotp_net.Link.delay l) in
  post engine h slot ~after:d
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"pin" (analyze slipped)

(* A protocol timer is re-armed in seconds, relative or absolute: an RTO
   re-armed in milliseconds, or a pacing deadline kept in milliseconds,
   is caught at the arm. *)
let planted_arm_ms_slip () =
  let correct =
    {|
let rearm tm r = Leotp_sim.Engine.arm tm ~after:(Leotp_util.Rto.rto r)
let pace tm engine gap = Leotp_sim.Engine.arm_at tm ~time:(Leotp_sim.Engine.now engine +. gap)
|}
  in
  check_none (analyze correct);
  let slipped_after =
    {|
let rearm tm r =
  let rto_ms = Leotp_util.Units.sec_to_ms (Leotp_util.Rto.rto r) in
  Leotp_sim.Engine.arm tm ~after:rto_ms
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"Engine.arm" (analyze slipped_after);
  let slipped_at =
    {|
let pace tm engine =
  let now_ms = Leotp_util.Units.sec_to_ms (Leotp_sim.Engine.now engine) in
  Leotp_sim.Engine.arm_at tm ~time:now_ms
|}
  in
  check_one ~rule:"dim-mixed-arith" ~witness:"Engine.arm_at" (analyze slipped_at)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "leotp-dim"
    [
      ( "mixed-arith",
        [
          Alcotest.test_case "seconds + bytes flagged" `Quick mixed_add;
          Alcotest.test_case "seconds < rate flagged" `Quick mixed_compare;
          Alcotest.test_case "Float.max mixing flagged" `Quick mixed_minmax;
          Alcotest.test_case "same-unit arithmetic clean" `Quick
            clean_same_unit;
        ] );
      ( "conversions",
        [
          Alcotest.test_case "Units helper clean" `Quick
            clean_units_conversion;
          Alcotest.test_case "*. 1000. on seconds flagged" `Quick
            raw_sec_to_ms;
          Alcotest.test_case "literal-first product flagged" `Quick
            raw_literal_first;
          Alcotest.test_case "/. 8. on bits flagged" `Quick raw_bits_div;
          Alcotest.test_case "srtt /. 8. heuristic clean" `Quick
            scalar_divide_not_conversion;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "two-call chain flagged with witness" `Quick
            interprocedural_chain;
          Alcotest.test_case "generic helpers stay polymorphic" `Quick
            inference_stays_local;
          Alcotest.test_case "cross-file propagation" `Quick
            cross_file_propagation;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "param pin flags ms into seconds slot" `Quick
            pin_honored_flags;
          Alcotest.test_case "param pin seconds is clean" `Quick
            pin_honored_clean;
          Alcotest.test_case "returns pin flows to callers" `Quick
            returns_pin;
          Alcotest.test_case "expression pin checked at slot" `Quick
            expression_pin;
          Alcotest.test_case "unknown unit diagnosed" `Quick
            malformed_annotation;
          Alcotest.test_case "unknown param diagnosed" `Quick
            annotation_unknown_param;
        ] );
      ( "allows",
        [
          Alcotest.test_case "expression allow suppresses" `Quick
            allow_suppresses;
          Alcotest.test_case "file allow suppresses" `Quick
            file_allow_suppresses;
        ] );
      ( "seqno",
        [
          Alcotest.test_case "seqno + size flagged" `Quick seqno_vs_bytes;
          Alcotest.test_case "seqno difference/order clean" `Quick
            seqno_difference_clean;
        ] );
      ( "products",
        [
          Alcotest.test_case "rate x rate flagged" `Quick rate_times_rate;
          Alcotest.test_case "time x time flagged" `Quick time_times_time;
          Alcotest.test_case "BDP rate x time clean" `Quick
            rate_times_time_clean;
          Alcotest.test_case "bytes / seconds usable as rate" `Quick
            quotient_derives_rate;
          Alcotest.test_case "distance / c is seconds" `Quick
            distance_over_speed_is_time;
        ] );
      ( "witness-and-stability",
        [
          Alcotest.test_case "witness names seed and chain" `Quick
            witness_names_seed_and_chain;
          Alcotest.test_case "byte-stable across input order" `Quick
            order_independent;
          Alcotest.test_case "bench paths exempt" `Quick bench_paths_exempt;
          Alcotest.test_case "same-named arities" `Quick same_name_arities;
        ] );
      ( "oracle-sensitivity",
        [
          Alcotest.test_case "planted RTO-floor ms slip caught" `Quick
            planted_rto_floor_slip;
          Alcotest.test_case "planted post ~after ms slip caught" `Quick
            planted_post_ms_slip;
          Alcotest.test_case "planted arm ~after / arm_at ~time ms slip caught"
            `Quick planted_arm_ms_slip;
        ] );
    ]
