(* leotp-race: fixture tests for the interprocedural domain-safety pass
   (unguarded accesses flagged with witness paths, guarded/atomic code
   clean, item-level suppression honoured) plus a QCheck round-trip on
   the call-graph builder over generated nested modules. *)

module Finding = Leotp_lint.Finding
module Race = Leotp_lint.Race
module Callgraph = Leotp_lint.Callgraph

let analyze src = Race.analyze_sources [ ("lib/core/fixture.ml", src) ]

let errors findings =
  List.filter (fun f -> f.Finding.severity = Finding.Error) findings

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fixtures *)

(* A ref mutated from a closure handed to Domain.spawn: the canonical
   injected race.  One finding, correct line, witness path showing
   entrypoint -> callee -> access. *)
let test_flags_unguarded_ref () =
  let src =
    "let counter = ref 0\n\
     let bump () = incr counter\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  match errors (analyze src) with
  | [ f ] ->
    Alcotest.(check string) "rule" Race.rule_id f.Finding.rule;
    Alcotest.(check int) "access line" 2 f.Finding.line;
    Alcotest.(check bool) "witness names the entrypoint" true
      (contains f.Finding.message "Fixture.start.<entry:");
    Alcotest.(check bool) "witness walks through bump" true
      (contains f.Finding.message "Fixture.bump");
    Alcotest.(check bool) "names the global" true
      (contains f.Finding.message "Fixture.counter")
  | fs -> Alcotest.failf "expected exactly 1 error, got %d" (List.length fs)

(* Same shape, but the access sits after Mutex.lock in a sequence: the
   lockset heuristic must keep it clean. *)
let test_mutex_sequence_clean () =
  let src =
    "let m = Mutex.create ()\n\
     let counter = ref 0\n\
     let bump () = Mutex.lock m; incr counter; Mutex.unlock m\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  Alcotest.(check int) "no errors" 0 (List.length (errors (analyze src)))

let test_guarded_clean () =
  let src =
    "let state = Leotp_util.Guarded.create 0\n\
     let bump () = Leotp_util.Guarded.with_ state (fun s -> s + 1)\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  Alcotest.(check int) "no errors" 0 (List.length (errors (analyze src)))

let test_atomic_clean () =
  let src =
    "let hits = Atomic.make 0\n\
     let bump () = Atomic.incr hits\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  Alcotest.(check int) "no errors" 0 (List.length (errors (analyze src)))

(* The same unguarded access as the first fixture, justified with an
   item-level allow at the access site. *)
let test_allow_suppresses () =
  let src =
    "let counter = ref 0\n\
     let bump () = (incr counter) [@leotp.allow \"domain-unsafe-access\"]\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  Alcotest.(check int) "suppressed" 0 (List.length (errors (analyze src)))

(* A named function passed to a spawn sink (no literal closure) must
   still be treated as an entrypoint. *)
let test_named_entrypoint () =
  let src =
    "let counter = ref 0\n\
     let worker () = incr counter\n\
     let start () = Domain.spawn worker\n"
  in
  match errors (analyze src) with
  | [ f ] ->
    Alcotest.(check int) "access line" 2 f.Finding.line;
    Alcotest.(check bool) "witness walks through worker" true
      (contains f.Finding.message "Fixture.worker")
  | fs -> Alcotest.failf "expected exactly 1 error, got %d" (List.length fs)

(* A top-level mutable-record binding detected via `x.f <- e` rather
   than a creator call. *)
let test_mutable_record_field () =
  let src =
    "type s = { mutable n : int }\n\
     let st = { n = 0 }\n\
     let bump () = st.n <- st.n + 1\n\
     let start () = Domain.spawn (fun () -> bump ())\n"
  in
  match errors (analyze src) with
  | f :: _ ->
    Alcotest.(check bool) "names the record binding" true
      (contains f.Finding.message "Fixture.st")
  | [] -> Alcotest.fail "expected a mutable-field finding"

(* Cross-file: the global lives in one unit, the entrypoint in
   another. *)
let test_cross_module () =
  let state = "let table = Hashtbl.create 16\nlet put k v = Hashtbl.replace table k v\n" in
  let driver =
    "let start () = Domain.spawn (fun () -> State.put 1 2)\n"
  in
  let findings =
    Race.analyze_sources
      [ ("lib/core/state.ml", state); ("lib/core/driver.ml", driver) ]
  in
  match errors findings with
  | [ f ] ->
    Alcotest.(check string) "finding lands in state.ml" "lib/core/state.ml"
      f.Finding.file;
    Alcotest.(check bool) "witness starts in driver" true
      (contains f.Finding.message "Driver.start.<entry:")
  | fs -> Alcotest.failf "expected exactly 1 error, got %d" (List.length fs)

(* Deterministic output: analysis must not depend on input order. *)
let test_input_order_independent () =
  let a = ("lib/core/state.ml", "let t = ref 0\nlet poke () = incr t\n") in
  let b = ("lib/core/driver.ml", "let start () = Domain.spawn (fun () -> State.poke ())\n") in
  let f1 = Race.analyze_sources [ a; b ] in
  let f2 = Race.analyze_sources [ b; a ] in
  Alcotest.(check bool) "same findings either way" true (f1 = f2)

(* Code never reached from any entrypoint stays clean even if it pokes
   a mutable global: single-domain mutation is fine. *)
let test_unreachable_mutation_clean () =
  let src = "let counter = ref 0\nlet bump () = incr counter\n" in
  Alcotest.(check int) "no entrypoints, no findings" 0
    (List.length (errors (analyze src)))

(* Two bindings of one name are two defs, and a call follows both: the
   racy one is reported whichever of them comes first. *)
let test_same_name_both_followed () =
  let racy = "let f () = incr counter\n" and clean = "let f () = ()\n" in
  List.iter
    (fun (order, fs) ->
      let src =
        "let counter = ref 0\n" ^ String.concat "" fs
        ^ "let start () = Domain.spawn (fun () -> f ())\n"
      in
      Alcotest.(check int) order 1 (List.length (errors (analyze src))))
    [ ("racy first", [ racy; clean ]); ("clean first", [ clean; racy ]) ]

(* ------------------------------------------------------------------ *)
(* QCheck: call-graph round-trip on generated modules *)

(* Generate a unit with t top-level defs f0..f(t-1) and m defs g0..
   g(m-1) inside `module Inner`, where each def calls a subset of the
   defs declared before it (encoded as a bitmask).  Render to source,
   parse, build the call graph (the unit's defs and the identifier
   references of each body), and check that the recovered def names
   and resolved call edges match the generated ones exactly. *)

type gen_unit = { top : int list list; inner : int list list }
(* top.(i) / inner.(i) = indices (into the combined earlier-def list)
   that def i calls.  Combined order: f0..f(t-1) then g0..g(m-1). *)

let gen_unit_gen =
  let open QCheck2.Gen in
  let callees_of_mask n_earlier mask =
    List.filter (fun i -> mask land (1 lsl i) <> 0)
      (List.init n_earlier Fun.id)
  in
  int_range 1 5 >>= fun t ->
  int_range 0 5 >>= fun m ->
  let masks k = list_repeat k (int_range 0 1023) in
  masks t >>= fun tm ->
  masks m >>= fun im ->
  let top = List.mapi (fun i mask -> callees_of_mask i mask) tm in
  let inner = List.mapi (fun i mask -> callees_of_mask (t + i) mask) im in
  return { top; inner }

let name_of_index ~t i = if i < t then Printf.sprintf "f%d" i
  else Printf.sprintf "Inner.g%d" (i - t)

(* Inside Inner, earlier Inner defs are referenced bare. *)
let written_name ~t ~in_inner i =
  if i < t then Printf.sprintf "f%d" i
  else if in_inner then Printf.sprintf "g%d" (i - t)
  else Printf.sprintf "Inner.g%d" (i - t)

let render { top; inner } =
  let t = List.length top in
  let buf = Buffer.create 256 in
  let body ~in_inner callees =
    if callees = [] then "()"
    else
      String.concat "; "
        (List.map (fun i -> written_name ~t ~in_inner i ^ " ()") callees)
  in
  List.iteri
    (fun i cs ->
      Buffer.add_string buf
        (Printf.sprintf "let f%d () = %s\n" i (body ~in_inner:false cs)))
    top;
  if inner <> [] then begin
    Buffer.add_string buf "module Inner = struct\n";
    List.iteri
      (fun i cs ->
        Buffer.add_string buf
          (Printf.sprintf "  let g%d () = %s\n" i (body ~in_inner:true cs)))
      inner;
    Buffer.add_string buf "end\n"
  end;
  Buffer.contents buf

let callgraph_roundtrip_prop =
  let open QCheck2 in
  Test.make ~name:"call graph round-trips generated modules" ~count:200
    gen_unit_gen (fun u ->
      let t = List.length u.top in
      let src = render u in
      match Callgraph.parse_impl ~path:"lib/core/fixture.ml" src with
      | Error msg -> QCheck2.Test.fail_reportf "parse failed: %s\n%s" msg src
      | Ok structure ->
        let defs = Callgraph.bindings ~path:"lib/core/fixture.ml" structure in
        let refs (d : Callgraph.def) =
          fst (Callgraph.scan ~sinks:[] ~is_closure:(fun _ -> false) d.expr)
        in
        let expected_qnames =
          List.mapi (fun i _ -> "Fixture." ^ name_of_index ~t i)
            (u.top @ u.inner)
        in
        let got_qnames = List.map (fun (d : Callgraph.def) -> d.qname) defs in
        if List.sort compare got_qnames <> List.sort compare expected_qnames
        then
          QCheck2.Test.fail_reportf "def mismatch: got [%s]\n%s"
            (String.concat "; " got_qnames) src
        else begin
          (* For each def, the set of generated defs its refs resolve to
             must equal its generated callee set.  All generated names
             are distinct, so the over-approximating [resolves] is exact
             here: every generated edge recovered, no spurious edge. *)
          let all = Array.of_list (u.top @ u.inner) in
          let n = Array.length all in
          let indices = List.init n Fun.id in
          let qname_of i = "Fixture." ^ name_of_index ~t i in
          List.for_all
            (fun (d : Callgraph.def) ->
              match List.find_opt (fun i -> qname_of i = d.qname) indices with
              | None -> false
              | Some idx ->
                let expected = List.sort compare all.(idx) in
                let resolved =
                  List.filter
                    (fun j ->
                      j <> idx
                      && List.exists
                           (fun (name, _) ->
                             Callgraph.resolves ~scope:d.scope ~written:name
                               ~qname:(qname_of j))
                           (refs d))
                    indices
                in
                resolved = expected)
            defs
        end)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_race"
    [
      ( "fixtures",
        [
          Alcotest.test_case "flags unguarded ref" `Quick
            test_flags_unguarded_ref;
          Alcotest.test_case "mutex sequence clean" `Quick
            test_mutex_sequence_clean;
          Alcotest.test_case "Guarded.with_ clean" `Quick test_guarded_clean;
          Alcotest.test_case "Atomic clean" `Quick test_atomic_clean;
          Alcotest.test_case "allow suppresses" `Quick test_allow_suppresses;
          Alcotest.test_case "named entrypoint" `Quick test_named_entrypoint;
          Alcotest.test_case "mutable record field" `Quick
            test_mutable_record_field;
          Alcotest.test_case "cross module witness" `Quick test_cross_module;
          Alcotest.test_case "input order independent" `Quick
            test_input_order_independent;
          Alcotest.test_case "unreachable mutation clean" `Quick
            test_unreachable_mutation_clean;
          Alcotest.test_case "same-named bindings both followed" `Quick
            test_same_name_both_followed;
        ] );
      ("callgraph", [ qc callgraph_roundtrip_prop ]);
    ]
