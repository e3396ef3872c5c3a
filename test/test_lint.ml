(* Fixture tests for the leotp-lint static analyzer: for every rule one
   known-bad snippet must be flagged at the right location, one clean
   snippet must pass, and [@leotp.allow] must silence exactly the named
   rule. *)

module Finding = Leotp_lint.Finding
module Engine = Leotp_lint.Engine
module Rules = Leotp_lint.Rules

let lint ?(path = "lib/core/fixture.ml") ?mli_exists src =
  Engine.lint_source ~path ?mli_exists src

let rules_of fs = List.map (fun f -> f.Finding.rule) fs

let find rule fs = List.filter (fun f -> f.Finding.rule = rule) fs

let check_flags ~rule ~line src =
  let fs = lint src in
  match find rule fs with
  | [ f ] ->
    Alcotest.(check int) (rule ^ " line") line f.Finding.line;
    Alcotest.(check string) (rule ^ " file") "lib/core/fixture.ml" f.Finding.file
  | [] -> Alcotest.failf "%s: not flagged in %S" rule src
  | fs ->
    Alcotest.failf "%s: flagged %d times in %S" rule (List.length fs) src

let check_clean ~rule src =
  let fs = find rule (lint src) in
  if fs <> [] then
    Alcotest.failf "%s: flagged clean snippet %S at line %d" rule src
      (List.hd fs).Finding.line

(* ------------------------------------------------------------------ *)
(* Rule 1: no-wall-clock *)

let test_wall_clock () =
  check_flags ~rule:"no-wall-clock" ~line:2
    "let a = 1\nlet t () = Unix.gettimeofday ()";
  check_flags ~rule:"no-wall-clock" ~line:1 "let cpu () = Sys.time ()";
  check_flags ~rule:"no-wall-clock" ~line:1 "let t () = Unix.time ()";
  check_clean ~rule:"no-wall-clock" "let t engine = Engine.now engine";
  (* localtime etc. are not wall-clock *reads*; only the three are banned *)
  check_clean ~rule:"no-wall-clock" "let s t = Unix.localtime t"

let test_wall_clock_scope () =
  (* The bench/bin harness may read wall clocks (perf timing). *)
  let src = "let t () = Unix.gettimeofday ()" in
  Alcotest.(check (list string))
    "bench exempt" []
    (rules_of (lint ~path:"bench/main.ml" src));
  Alcotest.(check (list string))
    "bin exempt" []
    (rules_of (lint ~path:"bin/leotp_sim.ml" src))

(* ------------------------------------------------------------------ *)
(* Rule 2: no-unseeded-random *)

let test_unseeded_random () =
  check_flags ~rule:"no-unseeded-random" ~line:1
    "let () = Random.self_init ()";
  check_flags ~rule:"no-unseeded-random" ~line:2
    "let a = 2\nlet roll () = Random.int 6";
  check_clean ~rule:"no-unseeded-random"
    "let roll st = Random.State.int st 6";
  (* applies outside lib/ too: the harness must also stay seeded *)
  let fs = lint ~path:"bench/main.ml" "let x () = Random.float 1.0" in
  Alcotest.(check bool)
    "flagged in bench" true
    (List.mem "no-unseeded-random" (rules_of fs))

(* ------------------------------------------------------------------ *)
(* Rule 3: ordered-iteration *)

let test_ordered_iteration () =
  check_flags ~rule:"ordered-iteration" ~line:1
    "let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t []";
  check_flags ~rule:"ordered-iteration" ~line:2
    "let f g t =\n  Hashtbl.iter (fun k v -> g k v) t";
  (* sorting the folded result immediately is recognised as safe *)
  check_clean ~rule:"ordered-iteration"
    "let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])";
  check_clean ~rule:"ordered-iteration" "let n t = Hashtbl.length t";
  (* sorting *something else* does not sanction the fold *)
  check_flags ~rule:"ordered-iteration" ~line:1
    "let f t l = List.sort compare l |> List.map (fun k -> Hashtbl.fold (fun _ _ a -> a) t k)"

(* ------------------------------------------------------------------ *)
(* Rule 4: no-global-mutable-state *)

let test_global_mutable () =
  check_flags ~rule:"no-global-mutable-state" ~line:1 "let count = ref 0";
  check_flags ~rule:"no-global-mutable-state" ~line:2
    "let a = 1\nlet tbl : (int, int) Hashtbl.t = Hashtbl.create 7";
  check_flags ~rule:"no-global-mutable-state" ~line:2
    "module Inner = struct\n  let buf = Buffer.create 16\nend";
  (* an anonymous module is still module level *)
  check_flags ~rule:"no-global-mutable-state" ~line:2
    "module _ = struct\n  let tbl = Hashtbl.create 16\nend";
  (* refs local to a function are per-call state, not global *)
  check_clean ~rule:"no-global-mutable-state"
    "let fresh () = ref 0\nlet use () = let r = ref 1 in !r";
  check_clean ~rule:"no-global-mutable-state" "let default_size = 64"

(* ------------------------------------------------------------------ *)
(* Rule 5: no-direct-print *)

let test_direct_print () =
  check_flags ~rule:"no-direct-print" ~line:1
    {|let f () = Printf.printf "x=%d" 3|};
  check_flags ~rule:"no-direct-print" ~line:2
    {|let a = 0
let g () = print_endline "hi"|};
  check_clean ~rule:"no-direct-print" {|let f () = Report.row "x=%d" 3|};
  check_clean ~rule:"no-direct-print" {|let s = Printf.sprintf "x=%d" 3|};
  (* bench/bin print directly by design *)
  Alcotest.(check (list string))
    "bench exempt" []
    (rules_of (lint ~path:"bench/main.ml" {|let f () = print_endline "ok"|}))

(* ------------------------------------------------------------------ *)
(* Rule 6: no-polymorphic-compare-on-float *)

let test_poly_float_compare () =
  let rule = "no-polymorphic-compare-on-float" in
  check_flags ~rule ~line:1 "let f x = x = 1.0";
  check_flags ~rule ~line:1 "let f a b = compare (a *. 2.0) b";
  check_flags ~rule ~line:1 "let f x = x <> Float.infinity";
  check_clean ~rule "let f x = Float.equal x 1.0";
  check_clean ~rule "let f x = Float.compare x 1.0 < 0";
  check_clean ~rule "let f x = x = 1";
  (* < and <= on floats are left alone (no nan-equality trap) *)
  check_clean ~rule "let f x = x < 1.0";
  (* float-containing structures: the boxed compare is just as
     nan-unsound one level down.  This is the Starlink handover-detector
     bug shape: a [float list option] compared with polymorphic <>. *)
  check_flags ~rule ~line:3
    "let f prev h =\n\
    \  let s = List.map (fun x -> Float.round (x *. 2.0)) h in\n\
    \  prev <> Some s";
  check_flags ~rule ~line:1 "let f (a : float list) b = a = b";
  check_flags ~rule ~line:1 "let f x y = (x, 1.0) = y";
  check_flags ~rule ~line:3
    "let f y =\n  let pair = (1, 2.5) in\n  pair = y";
  check_clean ~rule
    "let f prev h =\n\
    \  let s = List.map (fun x -> Float.round (x *. 2.0)) h in\n\
    \  Option.equal (List.equal Float.equal) prev (Some s)";
  (* int-shaped structures stay exempt *)
  check_clean ~rule "let f prev h = prev <> Some (List.map succ h)"
  ;
  (* polymorphic compare as a sort comparator, over data accumulated
     through a ref (the route-candidate shape of path_service.ml) *)
  check_flags ~rule ~line:5
    "let attach n =\n\
    \  let cands = ref [] in\n\
    \  for sat = 0 to n - 1 do cands := (float_of_int sat *. 2.0, sat) :: !cands done;\n\
    \  ignore n;\n\
    \  List.sort compare !cands";
  check_flags ~rule ~line:1 "let f xs = Array.sort compare (Array.map (fun x -> x *. 2.0) xs)";
  check_clean ~rule
    "let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])";
  check_clean ~rule
    "let attach n =\n\
    \  let cands = ref [] in\n\
    \  for sat = 0 to n - 1 do cands := (sat, sat) :: !cands done;\n\
    \  List.sort compare !cands"

(* ------------------------------------------------------------------ *)
(* Rule 7: missing-interface *)

let test_missing_interface () =
  let src = "let x = 1" in
  let fs = lint ~mli_exists:false src in
  Alcotest.(check (list string)) "warns" [ "missing-interface" ] (rules_of fs);
  (match fs with
  | [ f ] ->
    Alcotest.(check string)
      "severity" "warning"
      (Finding.severity_to_string f.Finding.severity)
  | _ -> Alcotest.fail "expected exactly one finding");
  Alcotest.(check (list string))
    "mli present" []
    (rules_of (lint ~mli_exists:true src));
  Alcotest.(check (list string))
    "unknown fs state" []
    (rules_of (lint src));
  Alcotest.(check (list string))
    "bench exempt" []
    (rules_of (lint ~path:"bench/main.ml" ~mli_exists:false src));
  Alcotest.(check (list string))
    "file-level allow" []
    (rules_of
       (lint ~mli_exists:false
          "[@@@leotp.allow \"missing-interface\"]\nlet x = 1"))

(* ------------------------------------------------------------------ *)
(* Rule 9: hot-path-alloc *)

let test_hot_path_alloc () =
  let rule = "hot-path-alloc" in
  check_flags ~rule ~line:1 "let p () = Packet.blank ()";
  check_flags ~rule ~line:2
    "let a = 1\nlet f p = Leotp_net.Packet.assign_fresh_id p";
  (* the pool / codec layer itself is sanctioned *)
  Alcotest.(check (list string))
    "pool exempt" []
    (rules_of (lint ~path:"lib/net/packet_pool.ml" "let p () = Packet.blank ()"));
  Alcotest.(check (list string))
    "wire exempt" []
    (rules_of
       (lint ~path:"lib/tcp/wire.ml" "let f p = Packet.assign_fresh_id p"));
  (* applies everywhere, including bench/ and test fixtures in lib/ *)
  let fs = lint ~path:"bench/main.ml" "let p () = Leotp_net.Packet.blank ()" in
  Alcotest.(check bool)
    "flagged in bench" true
    (List.mem rule (rules_of fs));
  (* acquiring through the pool is the sanctioned idiom *)
  check_clean ~rule
    "let p () = Packet_pool.acquire ~src:0 ~dst:0 ~flow:0 ~size:1 ~kind:0";
  (* a justified allow is honoured *)
  check_clean ~rule
    {|let p () = (Packet.blank () [@leotp.allow "hot-path-alloc"])|}

(* ------------------------------------------------------------------ *)
(* Suppression *)

let test_allow_expression () =
  (* expression-scoped allow silences exactly that occurrence *)
  Alcotest.(check (list string))
    "silenced" []
    (rules_of
       (lint
          {|let t () = (Unix.gettimeofday () [@leotp.allow "no-wall-clock"])|}));
  (* ... but not a second, unannotated occurrence *)
  let fs =
    lint
      {|let t () = (Unix.gettimeofday () [@leotp.allow "no-wall-clock"])
let u () = Unix.gettimeofday ()|}
  in
  (match find "no-wall-clock" fs with
  | [ f ] -> Alcotest.(check int) "line" 2 f.Finding.line
  | fs -> Alcotest.failf "expected 1 surviving finding, got %d" (List.length fs))

let test_allow_binding () =
  Alcotest.(check (list string))
    "binding allow" []
    (rules_of
       (lint {|let count = ref 0 [@@leotp.allow "no-global-mutable-state"]|}))

let test_allow_names_one_rule () =
  (* an allow for rule A must not silence rule B in the same scope *)
  let fs =
    lint
      {|let t () = (Printf.printf "%f" (Unix.gettimeofday ())) [@leotp.allow "no-wall-clock"]|}
  in
  Alcotest.(check bool)
    "wall-clock silenced" true
    (find "no-wall-clock" fs = []);
  Alcotest.(check bool)
    "direct-print survives" true
    (find "no-direct-print" fs <> [])

let test_allow_file_level () =
  Alcotest.(check (list string))
    "file-level" []
    (rules_of
       (lint
          {|[@@@leotp.allow "no-wall-clock"]
let t () = Unix.gettimeofday ()
let u () = Unix.gettimeofday ()|}))

let test_allow_malformed_and_unknown () =
  let fs = lint {|let t () = (Unix.gettimeofday () [@leotp.allow])|} in
  Alcotest.(check bool)
    "malformed reported" true
    (find "malformed-allow" fs <> []);
  Alcotest.(check bool)
    "rule still fires" true
    (find "no-wall-clock" fs <> []);
  let fs = lint {|let x = (1 [@leotp.allow "no-such-rule"])|} in
  match find "unknown-rule" fs with
  | [ f ] -> Alcotest.(check bool) "warning" true (f.Finding.severity = Warning)
  | _ -> Alcotest.fail "unknown rule id not reported"

(* ------------------------------------------------------------------ *)
(* Engine plumbing *)

let test_parse_error () =
  match lint "let let let" with
  | [ f ] ->
    Alcotest.(check string) "rule" "parse-error" f.Finding.rule;
    Alcotest.(check bool) "error" true (f.Finding.severity = Error)
  | fs -> Alcotest.failf "expected 1 parse-error, got %d findings" (List.length fs)

let test_json_report () =
  let fs = lint "let t () = Unix.gettimeofday ()" in
  let json = Finding.report_json ~files:1 fs in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rule id" true (contains {|"rule":"no-wall-clock"|});
  Alcotest.(check bool) "file" true (contains {|"file":"lib/core/fixture.ml"|});
  Alcotest.(check bool) "errors count" true (contains {|"errors":1|})

(* ------------------------------------------------------------------ *)
(* Front end: every pass over one source *)

let all_passes path src =
  Engine.lint_source ~path src
  @ List.concat_map
      (fun analyze -> analyze [ (path, src) ])
      [
        Leotp_lint.Race.analyze_sources;
        Leotp_lint.Own.analyze_sources;
        Leotp_lint.Dim.analyze_sources;
      ]

(* A functor application in a type path is valid OCaml: no rule or
   pass may crash on it. *)
let test_functor_type_path () =
  Alcotest.(check (list string))
    "lints cleanly" []
    (rules_of (all_passes "lib/core/fixture.ml" "let f (x : Set.Make(Int).t) = x\n"))

(* Findings must not depend on how the path to a lib/ file is spelled. *)
let test_path_spelling () =
  let planted =
    "let now () = Unix.gettimeofday ()\n\
     let bad e m = Engine.now e +. Cc.fmss m\n\
     let arm t engine =\n\
    \  ignore (Engine.schedule engine ~after:1.0 (fun () -> t := [ 1 ]))\n\
     let leak pool node =\n\
    \  let p = Packet_pool.acquire pool in\n\
    \  Node.send node p\n"
  in
  let sites path =
    List.sort_uniq compare
      (List.map
         (fun f -> (f.Finding.rule, f.Finding.line, f.Finding.col))
         (all_passes path planted))
  in
  let expected = sites "lib/core/a.ml" in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (rule ^ " fires") true
        (List.exists (fun (r, _, _) -> r = rule) expected))
    [ "no-wall-clock"; "time-taint"; "dim-mixed-arith"; "hot-path-may-alloc";
      "own-leak" ];
  List.iter
    (fun path ->
      Alcotest.(check (list (triple string int int))) path expected (sites path))
    [ "./lib/core/a.ml"; "/abs/x/lib/core/a.ml" ]

(* ------------------------------------------------------------------ *)
(* Golden text of the interprocedural passes *)

(* A small multi-file corpus with at least one finding per
   interprocedural rule id, and a call chain of seven or more hops for
   the race, hot-path-may-alloc, time-taint and dim-provenance
   witnesses, so every witness-elision shape is exercised. *)
let golden_corpus =
  [
    ("lib/core/state.ml", "let counter = ref 0\nlet bump () = incr counter\n");
    ( "lib/core/spawn.ml",
      "let r1 () = State.bump ()\n\
       let r2 () = r1 ()\n\
       let r3 () = r2 ()\n\
       let r4 () = r3 ()\n\
       let r5 () = r4 ()\n\
       let r6 () = r5 ()\n\
       let start () = Domain.spawn (fun () -> r6 ())\n" );
    ( "lib/core/shr.ml",
      "let a7 x = [ x ]\n\
       let a6 x = a7 x\n\
       let a5 x = a6 x\n\
       let a4 x = a5 x\n\
       let a3 x = a4 x\n\
       let a2 x = a3 x\n\
       let a1 x = a2 x\n\
       let on_packet t pkt =\n\
      \  ignore (a1 pkt);\n\
      \  t := (pkt, pkt)\n" );
    ( "lib/core/clock_user.ml",
      "let now () = Unix.gettimeofday ()\nlet stamp () = Tick.t1 ()\n" );
    ( "bench/tick.ml",
      "let t7 () = Unix.gettimeofday ()\n\
       let t6 () = t7 ()\n\
       let t5 () = t6 ()\n\
       let t4 () = t5 ()\n\
       let t3 () = t4 ()\n\
       let t2 () = t3 ()\n\
       let t1 () = t2 ()\n" );
    ( "lib/core/pool_user.ml",
      "let look p = ignore p\n\
       let leak pool =\n\
      \  let p = Packet_pool.acquire pool in\n\
      \  look p;\n\
      \  look p;\n\
      \  look p;\n\
      \  look p;\n\
      \  look p;\n\
      \  look p\n\
       let double pool =\n\
      \  let p = Packet_pool.acquire pool in\n\
      \  Packet_pool.release pool p;\n\
      \  Packet_pool.release pool p\n\
       let uar pool node =\n\
      \  let p = Packet_pool.acquire pool in\n\
      \  Packet_pool.release pool p;\n\
      \  Node.send node p\n\
       let stash tbl pool k =\n\
      \  let p = Packet_pool.acquire pool in\n\
      \  Hashtbl.replace tbl k p\n\
       let bad_owns p = ignore p [@@leotp.owns \"gives p\"]\n" );
    ( "lib/core/dimx.ml",
      "let d0 e = Engine.now e\n\
       let d1 e = d0 e\n\
       let d2 e = d1 e\n\
       let d3 e = d2 e\n\
       let d4 e = d3 e\n\
       let d5 e = d4 e\n\
       let d6 e = d5 e\n\
       let d7 e = d6 e\n\
       let mixed e m = d7 e +. Cc.fmss m\n\
       let product e = Engine.now e *. Engine.now e\n\
       let raw e = Engine.now e *. 1000.0\n\
       let seq s len = s + len [@@leotp.dim \"seqno s, bytes len\"]\n\
       let annot x = x [@@leotp.dim \"parsecs x\"]\n" );
  ]

let render_golden () =
  List.concat_map
    (fun analyze -> List.map Finding.to_text (analyze golden_corpus))
    [
      Leotp_lint.Race.analyze_sources;
      Leotp_lint.Own.analyze_sources;
      Leotp_lint.Dim.analyze_sources;
    ]

let golden_expected =
  {|lib/core/state.ml:2:19: [error] domain-unsafe-access: unguarded cross-domain access to State.counter (ref, defined lib/core/state.ml:1); guard it with Guarded.with_ / Atomic, or justify with an item-level [@leotp.allow "domain-unsafe-access"]; witness: Spawn.start.<entry:7:28> (lib/core/spawn.ml:7) -> Spawn.r6 (lib/core/spawn.ml:6) -> Spawn.r5 (lib/core/spawn.ml:5) -> ... 3 more ... -> Spawn.r1 (lib/core/spawn.ml:1) -> State.bump (lib/core/state.ml:2) -> access at line 2
lib/core/clock_user.ml:1:13: [error] time-taint: Clock_user.now reads the wall clock (Unix.gettimeofday) but lives in the sim-time stratum; route real time through the harness or justify with [@leotp.allow "time-taint"]; witness: Clock_user.now -> reads Unix.gettimeofday at line 1
lib/core/clock_user.ml:2:15: [error] time-taint: sim-time code Clock_user.stamp reaches a wall-clock read through harness code Tick.t1; keep real time out of the protocol core or justify with [@leotp.allow "time-taint"]; witness: Clock_user.stamp -> Tick.t1 -> Tick.t2 -> Tick.t3 -> Tick.t4 -> Tick.t5 -> Tick.t6 -> Tick.t7 -> reads Unix.gettimeofday at line 1
lib/core/pool_user.ml:3:10: [error] own-leak: packet p (Packet_pool.acquire) is never released or handed off in Pool_user.leak; release it on every path, hand it to a consuming/transferring callee, or annotate the callee with [@leotp.owns]; witness: acquired (line 3) -> borrowed by look (line 4) -> borrowed by look (line 5) -> ... 3 more ... -> borrowed by look (line 9) -> end of Pool_user.leak still owned
lib/core/pool_user.ml:13:27: [error] own-double-release: double release of p: already released (line 12); witness: p in Pool_user.double -> released (line 12) -> released again at line 13
lib/core/pool_user.ml:17:17: [error] own-use-after-release: use of p after it was released (line 16); the record may already be recycled under another owner; witness: p in Pool_user.uar -> released (line 16) -> use at line 17
lib/core/pool_user.ml:20:24: [error] own-escape: packet p escapes into a long-lived container (Hashtbl.replace) that is not a registered sink; hand it to Pkt_queue.push, annotate the enclosing function with [@leotp.owns "transfers"], or justify with [@leotp.allow "own-escape"]; witness: p in Pool_user.stash -> stored at line 20
lib/core/pool_user.ml:21:26: [error] own-annotation: malformed [@leotp.owns] payload "gives p": unknown role "gives" (expected consumes | transfers | borrows | source); grammar: "consumes|transfers|borrows [param ...]" or "source"
lib/core/shr.ml:9:10: [error] hot-path-may-alloc: call to a1 may allocate on the packet hot path (a list cell at lib/core/shr.ml:1); hoist the allocation, restructure the call, or justify with [@leotp.allow "hot-path-may-alloc"]; witness: Shr.on_packet (lib/core/shr.ml:8) -> Shr.a1 -> Shr.a2 -> ... 4 more ... -> Shr.a7 -> allocates a list cell at line 1
lib/core/shr.ml:10:7: [error] hot-path-may-alloc: a tuple is allocated on the packet hot path; hoist it out of the per-packet flow or justify with [@leotp.allow "hot-path-may-alloc"]; witness: Shr.on_packet (lib/core/shr.ml:8) -> allocates at line 10
lib/core/dimx.ml:9:16: [error] dim-mixed-arith: (+.) mixes seconds with bytes; convert one side via Leotp_util.Units or justify with [@leotp.allow "dim-mixed-arith"]; witness: seconds (via Engine.now returns seconds (seed) -> returned by Dimx.d0 -> ... 5 more ... -> returned by Dimx.d6 -> returned by Dimx.d7) vs bytes (via Cc.fmss returns bytes (seed)) at line 9
lib/core/dimx.ml:10:16: [error] dim-bad-product: suspicious product: seconds x seconds (a duration squared); no quantity in the protocol has this unit — restructure or justify with [@leotp.allow "dim-bad-product"]; witness: seconds (via Engine.now returns seconds (seed)) vs seconds (via Engine.now returns seconds (seed)) at line 10
lib/core/dimx.ml:11:12: [error] dim-raw-conversion: raw unit conversion: seconds *. 1000 re-derives Units.sec_to_ms; call Leotp_util.Units.sec_to_ms or justify with [@leotp.allow "dim-raw-conversion"]; witness: seconds (via Engine.now returns seconds (seed)) at line 11
lib/core/dimx.ml:12:16: [error] dim-seqno-arith: (+) mixes seqno with bytes; an ordinal sequence number is not a size; convert explicitly (offset difference, count x size) or justify with [@leotp.allow "dim-seqno-arith"]; witness: seqno (via Dimx.seq s is seqno ([@leotp.dim] pin)) vs bytes (via Dimx.seq len is bytes ([@leotp.dim] pin)) at line 12
lib/core/dimx.ml:13:16: [error] dim-annotation: malformed [@leotp.dim] payload "parsecs x": unknown unit "parsecs" (expected seconds|ms|us|bytes|bits|mb|packets|meters|km|seqno|mbps|dimensionless|<base>_per_<base>)|}

let test_golden_text () =
  Alcotest.(check (list string))
    "finding text" (String.split_on_char '\n' golden_expected)
    (render_golden ())

let test_registry_docs () =
  (* every advertised rule id is non-empty and unique; doc strings exist *)
  let ids = Rules.known_ids in
  Alcotest.(check int) "21 rules" 21 (List.length ids);
  Alcotest.(check int) "unique"
    (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (r : Rules.t) ->
      Alcotest.(check bool) (r.id ^ " documented") true (String.length r.doc > 0))
    Rules.all

let () =
  Alcotest.run "leotp_lint"
    [
      ( "rules",
        [
          Alcotest.test_case "no-wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "no-wall-clock scope" `Quick test_wall_clock_scope;
          Alcotest.test_case "no-unseeded-random" `Quick test_unseeded_random;
          Alcotest.test_case "ordered-iteration" `Quick test_ordered_iteration;
          Alcotest.test_case "no-global-mutable-state" `Quick
            test_global_mutable;
          Alcotest.test_case "no-direct-print" `Quick test_direct_print;
          Alcotest.test_case "no-polymorphic-compare-on-float" `Quick
            test_poly_float_compare;
          Alcotest.test_case "missing-interface" `Quick test_missing_interface;
          Alcotest.test_case "hot-path-alloc" `Quick test_hot_path_alloc;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "expression allow" `Quick test_allow_expression;
          Alcotest.test_case "binding allow" `Quick test_allow_binding;
          Alcotest.test_case "allow names one rule" `Quick
            test_allow_names_one_rule;
          Alcotest.test_case "file-level allow" `Quick test_allow_file_level;
          Alcotest.test_case "malformed / unknown" `Quick
            test_allow_malformed_and_unknown;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "registry" `Quick test_registry_docs;
        ] );
      ( "front end",
        [
          Alcotest.test_case "functor type path" `Quick test_functor_type_path;
          Alcotest.test_case "path spelling" `Quick test_path_spelling;
        ] );
      ( "golden",
        [ Alcotest.test_case "interprocedural finding text" `Quick test_golden_text ] );
    ]
