(* leotp-race: interprocedural domain-safety analysis.

   The question the per-expression rules cannot answer: is any
   top-level mutable value transitively reachable from a domain
   entrypoint (a closure handed to Domain.spawn or
   Domain_pool.submit/run/map) accessed outside a critical section?
   Such an access is exactly the bug that silently breaks the --jobs N
   bit-identity claim, and the one a file-level
   [@leotp.allow "no-global-mutable-state"] used to wave through.

   The analysis is a lockset-flavoured reachability walk over the
   per-file call graphs of Callgraph:

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

   Like every leotp-lint pass this is best-effort syntactic analysis:
   higher-order flow (thunks stored in data structures) is invisible,
   renamed module aliases hide guards, and shadowing is ignored.
   Escape hatch: [@leotp.allow "domain-unsafe-access"] at the access
   site, item-level and justified. *)

let rule_id = "domain-unsafe-access"

type node = { nfile : string; ndef : Callgraph.def }

type gnode = { gfile : string; g : Callgraph.global }

let line = Callgraph.line

let witness ~(access : Callgraph.reference) path =
  let step (n : node) =
    Printf.sprintf "%s (%s:%d)" n.ndef.qname n.nfile (line n.ndef.loc)
  in
  String.concat " -> "
    (Callgraph.elide ~max:6 ~head:3 ~tail:2 (List.map step path)
    @ [ Printf.sprintf "access at line %d" (line access.loc) ])

let analyze (units : Callgraph.parsed list) : Finding.t list =
  let cgs =
    List.map (fun (u : Callgraph.parsed) -> Callgraph.of_structure ~path:u.path u.ast) units
  in
  let node_key n = (n.nfile, n.ndef.qname) in
  let defs =
    Callgraph.index node_key
      (List.concat_map
         (fun (cg : Callgraph.t) ->
           List.map (fun d -> { nfile = cg.file; ndef = d }) cg.defs)
         cgs)
  in
  (* Tracked globals: explicit mutable creators, plus any top-level
     binding that is the receiver of a field assignment somewhere
     (mutable record detected from use). *)
  let globals : gnode list =
    let created =
      List.concat_map
        (fun (cg : Callgraph.t) ->
          List.map (fun g -> { gfile = cg.file; g }) cg.globals)
        cgs
    in
    let all_setfields =
      List.concat_map
        (fun (cg : Callgraph.t) ->
          List.map
            (fun (r : Callgraph.reference) -> (cg.module_name, r))
            cg.setfields)
        cgs
    in
    let field_assigned =
      List.concat_map
        (fun (cg : Callgraph.t) ->
          List.filter_map
            (fun (qname, gloc) ->
              let already =
                List.exists
                  (fun gn -> gn.g.Callgraph.gqname = qname && gn.gfile = cg.file)
                  created
              in
              let hit =
                List.exists
                  (fun (m, (r : Callgraph.reference)) ->
                    Callgraph.resolves ~scope:[ m ] ~written:r.name ~qname)
                  all_setfields
              in
              if hit && not already then
                Some
                  {
                    gfile = cg.file;
                    g = { Callgraph.gqname = qname; gloc; creator = "mutable-field" };
                  }
              else None)
            cg.bindings)
        cgs
    in
    created @ field_assigned
  in
  let globals =
    Callgraph.index (fun gn -> (gn.gfile, gn.g.Callgraph.gqname)) globals
  in
  (* Entrypoints: literal closures (entry defs) plus named functions
     passed to spawn sinks, resolved. *)
  let entries =
    let literal =
      List.concat_map
        (fun (cg : Callgraph.t) ->
          List.filter_map
            (fun (d : Callgraph.def) ->
              if d.entry then Some { nfile = cg.file; ndef = d } else None)
            cg.defs)
        cgs
    in
    let named =
      List.concat_map
        (fun (cg : Callgraph.t) ->
          List.concat_map
            (fun (r : Callgraph.reference) ->
              Callgraph.resolve defs ~scope:[ cg.module_name ] r.name)
            cg.entry_names)
        cgs
    in
    List.sort_uniq
      (fun a b -> compare (node_key a) (node_key b))
      (literal @ named)
  in
  let em = Callgraph.emitter units in
  let report ~path ~(node : node) ~(access : Callgraph.reference) (gn : gnode) =
    Callgraph.emit em ~key:gn.g.Callgraph.gqname ~file:node.nfile ~rule:rule_id
      ~loc:access.loc
      (Printf.sprintf
         "unguarded cross-domain access to %s (%s, defined %s:%d); guard it \
          with Guarded.with_ / Atomic, or justify with an item-level \
          [@leotp.allow %S]; witness: %s"
         gn.g.Callgraph.gqname gn.g.Callgraph.creator gn.gfile
         (line gn.g.Callgraph.gloc) rule_id (witness ~access path))
  in
  (* DFS from each entrypoint.  [visited] is per-entry and keyed by
     (file, def, guardedness) so a function reached both inside and
     outside a critical section is examined in both contexts. *)
  List.iter
    (fun entry ->
      let visited = Hashtbl.create 64 in
      let rec visit ~path_rev ~guarded (node : node) =
        let key = (node.nfile, node.ndef.qname, guarded) in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          let path = List.rev (node :: path_rev) in
          List.iter
            (fun (r : Callgraph.reference) ->
              let safe = guarded || r.guarded in
              let scope = node.ndef.scope in
              if not safe then
                List.iter
                  (fun gn -> report ~path ~node ~access:r gn)
                  (Callgraph.resolve globals ~scope r.name);
              List.iter
                (fun callee ->
                  (* don't walk back into entry closures: they are
                     roots of their own *)
                  if not callee.ndef.entry then
                    visit ~path_rev:(node :: path_rev) ~guarded:safe callee)
                (Callgraph.resolve defs ~scope r.name))
            node.ndef.refs
        end
      in
      visit ~path_rev:[] ~guarded:false entry)
    entries;
  Callgraph.findings em

let analyze_sources sources = analyze (Callgraph.of_sources sources)
