(* leotp-own: fixture tests for the interprocedural packet-ownership,
   allocation-effect and time-taint pass.  Each planted defect (leaked
   acquire, double release, use-after-release, container escape,
   hot-path allocation, wall-clock taint) must be flagged with the right
   rule and a witness naming the path, while the clean and
   allow-suppressed variants pass.  A final check pins byte-stability:
   the same sources in any input order yield identical findings. *)

module Finding = Leotp_lint.Finding
module Own = Leotp_lint.Own

let analyze ?(path = "lib/core/fixture.ml") src =
  Own.analyze_sources [ (path, src) ]

let errors findings =
  List.filter (fun f -> f.Finding.severity = Finding.Error) findings

let with_rule rule findings =
  List.filter (fun f -> f.Finding.rule = rule) findings

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let check_one ~rule ?witness findings =
  match with_rule rule (errors findings) with
  | [ f ] ->
    (match witness with
    | Some needle ->
      Alcotest.(check bool)
        (rule ^ " witness mentions " ^ needle)
        true
        (contains f.Finding.message needle)
    | None -> ());
    f
  | [] -> Alcotest.failf "%s: not flagged" rule
  | fs -> Alcotest.failf "%s: flagged %d times" rule (List.length fs)

let check_clean ~rule findings =
  match with_rule rule findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: flagged clean fixture at line %d: %s" rule
      f.Finding.line f.Finding.message

(* ------------------------------------------------------------------ *)
(* Def identity *)

(* Two bindings of one name with different arities are two defs with a
   summary each, not one summary indexed past its end. *)
let test_same_name_arities () =
  Alcotest.(check int) "no findings" 0
    (List.length
       (Own.analyze_sources
          [ ("lib/core/a.ml", "let f x = x\nlet f x y = x + y\n") ]))

(* ------------------------------------------------------------------ *)
(* Ownership: own-leak *)

(* The canonical leak: a packet acquired and used but never released or
   handed off. *)
let test_leak () =
  let src =
    "let f pool node =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Node.send node p\n"
  in
  let f = check_one ~rule:Own.leak_id (analyze src) in
  Alcotest.(check int) "acquire line" 2 f.Finding.line;
  Alcotest.(check bool) "names the variable" true
    (contains f.Finding.message "packet p");
  Alcotest.(check bool) "witness present" true
    (contains f.Finding.message "witness:")

(* Releasing on only one branch leaks on the other. *)
let test_leak_one_path () =
  let src =
    "let f pool cond =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  if cond then Packet_pool.release pool p\n"
  in
  ignore (check_one ~rule:Own.leak_id ~witness:"some path" (analyze src))

(* Interprocedural: the callee only borrows, so the caller still owns
   the packet at the end. *)
let test_leak_interprocedural () =
  let src =
    "let inspect p = ignore p\n\
     let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  inspect p\n"
  in
  ignore (check_one ~rule:Own.leak_id (analyze src))

(* Clean: released locally. *)
let test_release_clean () =
  let src =
    "let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Packet_pool.release pool p\n"
  in
  check_clean ~rule:Own.leak_id (analyze src)

(* Clean interprocedurally: the callee releases, so its consuming role
   is inferred and discharges the caller's obligation. *)
let test_consume_inferred_clean () =
  let src =
    "let finish pool p = Packet_pool.release pool p\n\
     let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  finish pool p\n"
  in
  check_clean ~rule:Own.leak_id (analyze src)

(* Clean via annotation: [@leotp.owns "consumes p"] pins the role when
   inference cannot see the release (e.g. an external callee). *)
let test_owns_annotation_clean () =
  let src =
    "let hand_off p = External.sink p [@@leotp.owns \"consumes p\"]\n\
     let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  hand_off p\n"
  in
  check_clean ~rule:Own.leak_id (analyze src)

(* Transfer to the registered queue sink discharges ownership. *)
let test_transfer_sink_clean () =
  let src =
    "let f pool q =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Pkt_queue.push q p\n"
  in
  let fs = analyze src in
  check_clean ~rule:Own.leak_id fs;
  check_clean ~rule:Own.escape_id fs

(* ------------------------------------------------------------------ *)
(* Ownership: own-double-release *)

let test_double_release () =
  let src =
    "let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Packet_pool.release pool p;\n\
     \  Packet_pool.release pool p\n"
  in
  let f = check_one ~rule:Own.double_id ~witness:"witness:" (analyze src) in
  Alcotest.(check int) "second release line" 4 f.Finding.line

(* Interprocedural: the callee is inferred to consume, so a local
   release afterwards is a second release. *)
let test_release_after_consume () =
  let src =
    "let finish pool p = Packet_pool.release pool p\n\
     let f pool =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  finish pool p;\n\
     \  Packet_pool.release pool p\n"
  in
  Alcotest.(check bool) "flagged" true
    (errors (analyze src)
    |> List.exists (fun f -> f.Finding.rule = Own.double_id))

(* ------------------------------------------------------------------ *)
(* Ownership: own-use-after-release *)

let test_use_after_release () =
  let src =
    "let f pool node =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Packet_pool.release pool p;\n\
     \  Node.send node p\n"
  in
  let f = check_one ~rule:Own.uar_id ~witness:"witness:" (analyze src) in
  Alcotest.(check int) "use line" 4 f.Finding.line

let test_use_before_release_clean () =
  let src =
    "let f pool node =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Node.send node p;\n\
     \  Packet_pool.release pool p\n"
  in
  check_clean ~rule:Own.uar_id (analyze src)

(* ------------------------------------------------------------------ *)
(* Ownership: own-escape *)

let test_container_escape () =
  let src =
    "let stash tbl pool k =\n\
     \  let p = Packet_pool.acquire pool in\n\
     \  Hashtbl.replace tbl k p\n"
  in
  ignore
    (check_one ~rule:Own.escape_id ~witness:"long-lived container"
       (analyze src))

(* [@leotp.owns "transfers"] registers the def as a legitimate
   container store. *)
let test_escape_transfers_annotation_clean () =
  let src =
    "let stash tbl pool k =\n\
     \  (let p = Packet_pool.acquire pool in\n\
     \   Hashtbl.replace tbl k p)\n\
     [@@leotp.owns \"transfers\"]\n"
  in
  check_clean ~rule:Own.escape_id (analyze src)

(* Clones are tracked like acquires: stashing a clone escapes too. *)
let test_clone_escape () =
  let src =
    "let stash tbl pool k p =\n\
     \  let c = Packet_pool.clone pool p in\n\
     \  Hashtbl.replace tbl k c\n"
  in
  ignore (check_one ~rule:Own.escape_id (analyze src))

(* ------------------------------------------------------------------ *)
(* Allocation effects: hot-path-may-alloc *)

(* A hot root (suffix-matched def name) that allocates directly. *)
let test_hot_root_allocates () =
  let src =
    "let on_packet t pkt =\n\
     \  let entry = (t, pkt) in\n\
     \  ignore entry\n"
  in
  let fs = analyze ~path:"lib/core/shr.ml" src in
  ignore (check_one ~rule:Own.alloc_id ~witness:"witness:" fs)

(* Transitive: the hot root calls a helper whose callee allocates; the
   witness names the whole chain. *)
let test_hot_root_transitive_alloc () =
  let src =
    "let deep x = [ x ]\n\
     let helper x = deep x\n\
     let on_packet _t pkt = ignore (helper pkt)\n"
  in
  let fs = analyze ~path:"lib/core/shr.ml" src in
  let f = check_one ~rule:Own.alloc_id fs in
  Alcotest.(check bool) "chain walks through helper" true
    (contains f.Finding.message "Shr.helper");
  Alcotest.(check bool) "chain reaches deep" true
    (contains f.Finding.message "Shr.deep")

(* A literal closure handed to Engine.schedule in a datapath file is a
   hot root of its own. *)
let test_hot_closure_sink () =
  let src =
    "let arm t engine =\n\
     \  ignore (Engine.schedule engine ~after:1.0 (fun () -> t := [ 1 ]))\n"
  in
  let fs = analyze ~path:"lib/core/fixture.ml" src in
  Alcotest.(check bool) "closure body flagged" true
    (List.exists (fun f -> f.Finding.rule = Own.alloc_id) (errors fs))

(* The closures a link hands to Engine.handler at create run once per
   packet per hop, as typed events: each is a hot root, directly and
   through what it calls. *)
let test_typed_event_handler () =
  let direct =
    "let create engine t =\n\
     \  Engine.handler engine (fun slot -> t := [ slot ])\n"
  in
  ignore (check_one ~rule:Own.alloc_id (analyze ~path:"lib/net/link.ml" direct));
  let through =
    "let complete t slot = t := [ slot ]\n\
     let create engine t =\n\
     \  Engine.handler engine (fun slot -> complete t slot)\n"
  in
  ignore
    (check_one ~rule:Own.alloc_id ~witness:"Link.complete"
       (analyze ~path:"lib/net/link.ml" through));
  let clean =
    "let complete t slot = t := slot\n\
     let create engine t =\n\
     \  Engine.handler engine (fun slot -> complete t slot)\n"
  in
  check_clean ~rule:Own.alloc_id (analyze ~path:"lib/net/link.ml" clean)

(* A protocol timer's action, handed to Engine.timer at set-up, runs
   every time the timer fires; arming it runs per ack or pacing gap.
   The action is a hot root, and so are Engine.arm and Engine.arm_at. *)
let test_timer_roots () =
  let action =
    "let create engine t =\n\
     \  Engine.timer engine (fun () -> t := [ 1 ])\n"
  in
  ignore (check_one ~rule:Own.alloc_id (analyze ~path:"lib/tcp/sender.ml" action));
  let arm = "let arm tm ~after = tm := [ after ]\n" in
  ignore
    (check_one ~rule:Own.alloc_id ~witness:"Engine.arm"
       (analyze ~path:"lib/sim/engine.ml" arm));
  let arm_at = "let arm_at tm ~time = tm := [ time ]\n" in
  ignore
    (check_one ~rule:Own.alloc_id ~witness:"Engine.arm_at"
       (analyze ~path:"lib/sim/engine.ml" arm_at))

(* The same closure outside the datapath directories is setup code. *)
let test_non_datapath_clean () =
  let src =
    "let arm t engine =\n\
     \  ignore (Engine.schedule engine ~after:1.0 (fun () -> t := [ 1 ]))\n"
  in
  check_clean ~rule:Own.alloc_id (analyze ~path:"lib/scenario/fixture.ml" src)

(* An allocation-free hot root stays clean. *)
let test_hot_root_clean () =
  let src = "let on_packet t pkt = t := pkt\n" in
  check_clean ~rule:Own.alloc_id (analyze ~path:"lib/core/shr.ml" src)

(* [@leotp.allow] at the allocation site clears every chain that
   bottoms out there. *)
let test_alloc_allow_suppresses () =
  let src =
    "let deep x = ([ x ] [@leotp.allow \"hot-path-may-alloc\"])\n\
     let on_packet _t pkt = ignore (deep pkt)\n"
  in
  check_clean ~rule:Own.alloc_id (analyze ~path:"lib/core/shr.ml" src)

(* Two bindings of one name are two defs: a hot-root call reaches the
   allocating one whichever of them comes first. *)
let test_alloc_same_name_order () =
  let alloc = "let f x = [ x ]\n" and clean = "let f x = x\n" in
  List.iter
    (fun (order, fs) ->
      let src =
        String.concat "" fs ^ "let on_packet t pkt = ignore (f pkt); ignore t\n"
      in
      let hits =
        with_rule Own.alloc_id (errors (analyze ~path:"lib/core/shr.ml" src))
      in
      Alcotest.(check int) order 1 (List.length hits))
    [ ("allocating first", [ alloc; clean ]); ("clean first", [ clean; alloc ]) ]

(* ------------------------------------------------------------------ *)
(* Time taint *)

(* A direct wall-clock read in the sim-time stratum. *)
let test_time_taint_direct () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  ignore (check_one ~rule:Own.taint_id (analyze src))

(* Transitive through a harness-stratum helper: the read still becomes
   reachable from sim-time code. *)
let test_time_taint_transitive () =
  let sim = "let stamp () = Clock.read ()\n" in
  let harness = "let read () = Unix.gettimeofday ()\n" in
  let fs =
    Own.analyze_sources
      [ ("lib/core/fixture.ml", sim); ("bench/clock.ml", harness) ]
  in
  ignore (check_one ~rule:Own.taint_id ~witness:"Clock.read" fs)

(* Harness code may read wall clocks. *)
let test_time_taint_harness_clean () =
  let src = "let now () = Unix.gettimeofday ()\n" in
  check_clean ~rule:Own.taint_id (analyze ~path:"bench/main.ml" src)

(* Sim-time code calling a harness name bound twice reaches the
   wall-clock read whichever binding comes first. *)
let test_time_taint_same_name_order () =
  let wall = "let t () = Unix.gettimeofday ()\n" and sim = "let t () = 0.0\n" in
  List.iter
    (fun (order, fs) ->
      let found =
        Own.analyze_sources
          [ ("bench/tick.ml", String.concat "" fs);
            ("lib/core/u.ml", "let stamp () = Tick.t ()\n") ]
      in
      Alcotest.(check int) order 1
        (List.length (with_rule Own.taint_id (errors found))))
    [ ("wall clock first", [ wall; sim ]); ("sim first", [ sim; wall ]) ]

(* ------------------------------------------------------------------ *)
(* Byte stability *)

(* The same sources in any input order produce identical findings (and
   an identical report modulo the [files] count the caller passes). *)
let test_byte_stable () =
  let a =
    ( "lib/core/a.ml",
      "let f pool node =\n\
       \  let p = Packet_pool.acquire pool in\n\
       \  Node.send node p\n" )
  in
  let b = ("lib/core/b.ml", "let now () = Unix.gettimeofday ()\n") in
  let render fs =
    String.concat "\n"
      (List.map
         (fun f ->
           Printf.sprintf "%s:%d:%d %s %s" f.Finding.file f.Finding.line
             f.Finding.col f.Finding.rule f.Finding.message)
         fs)
  in
  let fwd = render (Own.analyze_sources [ a; b ]) in
  let rev = render (Own.analyze_sources [ b; a ]) in
  Alcotest.(check string) "order-independent" fwd rev;
  Alcotest.(check bool) "non-empty" true (String.length fwd > 0)

let () =
  Alcotest.run "leotp_own"
    [
      ( "ownership",
        [
          Alcotest.test_case "leak" `Quick test_leak;
          Alcotest.test_case "leak one path" `Quick test_leak_one_path;
          Alcotest.test_case "leak interprocedural" `Quick
            test_leak_interprocedural;
          Alcotest.test_case "release clean" `Quick test_release_clean;
          Alcotest.test_case "consume inferred clean" `Quick
            test_consume_inferred_clean;
          Alcotest.test_case "owns annotation clean" `Quick
            test_owns_annotation_clean;
          Alcotest.test_case "transfer sink clean" `Quick
            test_transfer_sink_clean;
          Alcotest.test_case "double release" `Quick test_double_release;
          Alcotest.test_case "release after consume" `Quick
            test_release_after_consume;
          Alcotest.test_case "use after release" `Quick test_use_after_release;
          Alcotest.test_case "use before release clean" `Quick
            test_use_before_release_clean;
          Alcotest.test_case "container escape" `Quick test_container_escape;
          Alcotest.test_case "escape transfers annotation" `Quick
            test_escape_transfers_annotation_clean;
          Alcotest.test_case "clone escape" `Quick test_clone_escape;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "hot root allocates" `Quick
            test_hot_root_allocates;
          Alcotest.test_case "transitive chain" `Quick
            test_hot_root_transitive_alloc;
          Alcotest.test_case "hot closure sink" `Quick test_hot_closure_sink;
          Alcotest.test_case "timer action, arm and arm_at" `Quick
            test_timer_roots;
          Alcotest.test_case "typed-event handler" `Quick
            test_typed_event_handler;
          Alcotest.test_case "non-datapath clean" `Quick
            test_non_datapath_clean;
          Alcotest.test_case "hot root clean" `Quick test_hot_root_clean;
          Alcotest.test_case "allow suppresses" `Quick
            test_alloc_allow_suppresses;
          Alcotest.test_case "same-named bindings either order" `Quick
            test_alloc_same_name_order;
        ] );
      ( "taint",
        [
          Alcotest.test_case "direct" `Quick test_time_taint_direct;
          Alcotest.test_case "transitive" `Quick test_time_taint_transitive;
          Alcotest.test_case "harness clean" `Quick
            test_time_taint_harness_clean;
          Alcotest.test_case "same-named bindings either order" `Quick
            test_time_taint_same_name_order;
        ] );
      ( "stability",
        [
          Alcotest.test_case "byte stable" `Quick test_byte_stable;
          Alcotest.test_case "same-named arities" `Quick test_same_name_arities;
        ] );
    ]
