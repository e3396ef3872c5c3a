(* leotp-race: interprocedural domain-safety analysis.

   The question the per-expression rules cannot answer: is any
   top-level mutable value transitively reachable from a domain
   entrypoint (a closure handed to Domain.spawn or
   Domain_pool.submit/run/map) accessed outside a critical section?
   Such an access is exactly the bug that silently breaks the --jobs N
   bit-identity claim, and the one a file-level
   [@leotp.allow "no-global-mutable-state"] used to wave through.

   The analysis is a lockset-flavoured reachability walk over a call
   graph built on Callgraph's def table:

     1. collect every top-level mutable binding (ref / Hashtbl / array
        / Queue / ... creator, or a binding some code field-assigns);
     2. collect every entrypoint (literal closures at spawn sinks plus
        named functions passed to them);
     3. DFS along resolved call edges from each entrypoint, propagating
        "inside a critical section" along call sites that are
        themselves guarded;
     4. report every access to a tracked global whose reference is not
        guarded (lexically inside Guarded.with_/await/get/set, an
        Atomic/Atomic_counter operation, or sequenced after
        Mutex.lock) — with the full entrypoint → call chain → access
        witness path.

   Guard regions are recorded as character ranges: everything inside an
   argument of Guarded.with_/await/get/set or an Atomic /
   Atomic_counter operation, and everything sequenced after a
   Mutex.lock (the `Mutex.lock l; ...` / `Fun.protect ~finally:unlock`
   idiom), is considered to run inside a critical section; references
   in those ranges are marked [guarded].

   Like every leotp-lint pass this is best-effort syntactic analysis:
   higher-order flow (thunks stored in data structures) is invisible,
   renamed module aliases hide guards, and same-named bindings are all
   followed.  Escape hatch: [@leotp.allow "domain-unsafe-access"] at
   the access site, item-level and justified. *)

open Ppxlib

let rule_id = "domain-unsafe-access"

let rules =
  [
    ( rule_id,
      "top-level mutable state reachable from a Domain_pool/Domain.spawn \
       entrypoint must be accessed inside Guarded/Atomic/Mutex critical \
       sections (interprocedural)" );
  ]

let line = Callgraph.line

(* ------------------------------------------------------------------ *)
(* Builtin knowledge *)

(* Creators whose result is shared-mutable when bound at top level.
   Atomic.make and Mutex.create are deliberately absent: an
   ['a Atomic.t] only admits atomic operations, and a mutex *is* a
   guard, not a hazard. *)
let mutable_creators =
  [
    "ref";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
    "Array.init";
    "Array.create_float";
  ]

let rec creator_of_rhs (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) -> creator_of_rhs inner
  | Pexp_array _ -> Some "[| |]"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let n = Callgraph.ident_name txt in
    if List.mem n mutable_creators then Some n else None
  | _ -> None

(* Application heads that move their function argument onto another
   domain: those arguments are domain entrypoints. *)
let spawn_sinks =
  [ "Domain.spawn"; "Domain_pool.submit"; "Domain_pool.run"; "Domain_pool.map" ]

(* Application heads whose arguments run inside a critical section or
   are atomic operations.  Module *aliases* are only recognised when
   the alias keeps the module's own name (module Guarded =
   Leotp_util.Guarded); a rename hides the guard and the access will be
   flagged — prefer same-name aliases. *)
let guard_fns =
  [
    "Guarded.with_";
    "Guarded.await";
    "Guarded.get";
    "Guarded.set";
    "Guarded.create";
    "Atomic.get";
    "Atomic.set";
    "Atomic.make";
    "Atomic.exchange";
    "Atomic.incr";
    "Atomic.decr";
    "Atomic.fetch_and_add";
    "Atomic.compare_and_set";
  ]

let is_guard_fn n =
  Callgraph.ends_with_any guard_fns n
  ||
  (* Atomic_counter.incr / Atomic_counter.Sum.add / ... — every
     operation of the counter module is atomic by construction. *)
  List.mem "Atomic_counter" (String.split_on_char '.' n)

(* ------------------------------------------------------------------ *)
(* The call graph *)

type reference = { name : string; loc : Location.t; guarded : bool }

(* A node is a function def, whose body runs when called, or a
   synthetic entrypoint def for a literal closure handed to a spawn
   sink, carrying exactly the refs of that closure's body.  A plain
   top-level value is no node: its RHS runs once at module init, on
   the main domain, and is never re-entered. *)
type node = { def : Callgraph.def; entry : bool; refs : reference list }

(* One body scan per def: its nodes, the functions it passes to a spawn
   sink by name, and the receivers of its [x.f <- e] assignments
   (evidence that a binding holds a mutable record). *)
let scan_def (d : Callgraph.def) =
  let guards = ref [] and named = ref [] and setfields = ref [] in
  let unguarded (name, loc) = { name; loc; guarded = false } in
  let visit (e : expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let n = Callgraph.ident_name txt in
      List.iter
        (fun ((_, a) : arg_label * expression) ->
          if is_guard_fn n then guards := Callgraph.range_of a.pexp_loc :: !guards;
          match a.pexp_desc with
          | Pexp_ident { txt; _ } when Callgraph.ends_with_any spawn_sinks n ->
            named := unguarded (Callgraph.ident_name txt, a.pexp_loc) :: !named
          | _ -> ())
        args
    | Pexp_sequence
        ({ pexp_desc = Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _); _ }, e2)
      when Callgraph.ends_with_any [ "Mutex.lock" ] (Callgraph.ident_name txt) ->
      guards := Callgraph.range_of e2.pexp_loc :: !guards
    | Pexp_setfield (({ pexp_desc = Pexp_ident { txt; _ }; _ } as recv), _, _) ->
      setfields := unguarded (Callgraph.ident_name txt, recv.pexp_loc) :: !setfields
    | _ -> ()
  in
  let idents, entries =
    Callgraph.scan ~visit ~sinks:spawn_sinks ~is_closure:Callgraph.is_lambda d.expr
  in
  let refs_where pred =
    List.filter_map
      (fun (name, loc) ->
        if pred loc then
          Some
            { name; loc;
              guarded = List.exists (fun r -> Callgraph.in_range r loc) !guards }
        else None)
      idents
  in
  let entry_ranges =
    List.map (fun (c : expression) -> Callgraph.range_of c.pexp_loc) entries
  in
  let nodes =
    (if Callgraph.is_lambda d.expr then
       [ { def = d; entry = false;
           refs =
             refs_where (fun loc ->
                 not (List.exists (fun r -> Callgraph.in_range r loc) entry_ranges)) } ]
     else [])
    @ List.map
        (fun (c : expression) ->
          { def = Callgraph.closure_def d "entry" c; entry = true;
            refs = refs_where (Callgraph.in_range (Callgraph.range_of c.pexp_loc)) })
        entries
  in
  (nodes, !named, !setfields)

(* Named entrypoints and field receivers resolve from the top of their
   file: the head of the def's scope. *)
let file_scope (d : Callgraph.def) =
  match d.scope with m :: _ -> [ m ] | [] -> []

let witness ~access path =
  let step n =
    Printf.sprintf "%s (%s:%d)" n.def.qname n.def.file (line n.def.loc)
  in
  String.concat " -> "
    (Callgraph.elide ~max:6 ~head:3 ~tail:2 (List.map step path)
    @ [ Printf.sprintf "access at line %d" (line access.loc) ])

let analyze (units : Callgraph.parsed list) : Finding.t list =
  let defs = Callgraph.defs units in
  let scanned = List.map (fun d -> (d, scan_def d)) defs in
  let nodes = List.concat_map (fun (_, (ns, _, _)) -> ns) scanned in
  let index = Callgraph.index (fun n -> n.def) nodes in
  (* Tracked globals: explicit mutable creators, plus any named binding
     that is the receiver of a field assignment somewhere (mutable
     record detected from use). *)
  let setfields =
    List.concat_map
      (fun (d, (_, _, sf)) -> List.map (fun r -> (file_scope d, r)) sf)
      scanned
  in
  let globals =
    Callgraph.index fst
      (List.filter_map
         (fun (d : Callgraph.def) ->
           match creator_of_rhs d.expr with
           | Some creator -> Some (d, creator)
           | None ->
             if
               d.named
               && List.exists
                    (fun (scope, r) ->
                      Callgraph.resolves ~scope ~written:r.name ~qname:d.qname)
                    setfields
             then Some (d, "mutable-field")
             else None)
         defs)
  in
  (* Entrypoints: literal closures (entry nodes) plus named functions
     passed to spawn sinks, resolved. *)
  let entries =
    List.filter (fun n -> n.entry) nodes
    @ List.concat_map
        (fun (d, (_, named, _)) ->
          List.concat_map
            (fun r -> Callgraph.resolve index ~scope:(file_scope d) r.name)
            named)
        scanned
    |> List.sort_uniq (fun a b ->
           compare (Callgraph.key a.def) (Callgraph.key b.def))
  in
  let em = Callgraph.emitter units in
  let report ~path ~node ~access ((g : Callgraph.def), creator) =
    Callgraph.emit em ~key:g.qname ~file:node.def.file ~rule:rule_id
      ~loc:access.loc
      (Printf.sprintf
         "unguarded cross-domain access to %s (%s, defined %s:%d); guard it \
          with Guarded.with_ / Atomic, or justify with an item-level \
          [@leotp.allow %S]; witness: %s"
         g.qname creator g.file (line g.loc) rule_id (witness ~access path))
  in
  (* DFS from each entrypoint.  [visited] is per-entry and keyed by
     (def, guardedness) so a function reached both inside and outside a
     critical section is examined in both contexts. *)
  List.iter
    (fun entry ->
      let visited = Hashtbl.create 64 in
      let rec visit ~path_rev ~guarded node =
        let key = (Callgraph.key node.def, guarded) in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          let path = List.rev (node :: path_rev) in
          List.iter
            (fun r ->
              let safe = guarded || r.guarded in
              let scope = node.def.scope in
              if not safe then
                List.iter
                  (report ~path ~node ~access:r)
                  (Callgraph.resolve globals ~scope r.name);
              List.iter
                (fun callee ->
                  (* don't walk back into entry closures: they are
                     roots of their own *)
                  if not callee.entry then
                    visit ~path_rev:(node :: path_rev) ~guarded:safe callee)
                (Callgraph.resolve index ~scope r.name))
            node.refs
        end
      in
      visit ~path_rev:[] ~guarded:false entry)
    entries;
  Callgraph.findings em

let analyze_sources sources = analyze (Callgraph.of_sources sources)
