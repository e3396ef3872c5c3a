(* Rule registry for leotp-lint.

   Every rule is purely syntactic (parsetree only, no typing pass), so
   each one is a cheap best-effort approximation of the property we
   actually care about; the [@leotp.allow "rule-id"] escape hatch exists
   precisely because a syntactic check cannot prove order-insensitivity
   or type a comparison.  Rules are scoped: protocol code under lib/ is
   held to stricter standards than the bench/bin harness (which
   legitimately reads wall clocks and prints to stdout). *)

open Ppxlib

type scope = Callgraph.scope = Lib | Bench | Bin | Other

type emit = loc:Location.t -> string -> unit

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;
  applies : scope -> bool;
  check : emit:emit -> structure -> unit;
}

let lib_only = function Lib -> true | Bench | Bin | Other -> false
let everywhere _ = true

let ident_name = Callgraph.ident_name

(* Visit every value identifier in the structure. *)
let iter_idents f st =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> f (ident_name txt) e.pexp_loc
        | _ -> ());
        super#expression e
    end
  in
  it#structure st

(* A rule that flags any use of the listed identifiers, with a
   per-identifier message. *)
let banned_idents ~id ~severity ~doc ~applies table =
  {
    id;
    severity;
    doc;
    applies;
    check =
      (fun ~emit st ->
        iter_idents
          (fun name loc ->
            match List.assoc_opt name table with
            | Some msg -> emit ~loc msg
            | None -> ())
          st);
  }

(* -- Rule 1: no-wall-clock ------------------------------------------- *)

let no_wall_clock =
  banned_idents ~id:"no-wall-clock" ~severity:Finding.Error
    ~doc:
      "lib/ must use simulated time (Engine.now); wall-clock reads make \
       traces and digests differ between runs"
    ~applies:lib_only
    [
      ( "Unix.gettimeofday",
        "wall-clock read in protocol code; use Engine.now (simulated time)" );
      ( "Unix.time",
        "wall-clock read in protocol code; use Engine.now (simulated time)" );
      ( "Sys.time",
        "process CPU-time read in protocol code; use Engine.now or the \
         Runner perf counters" );
    ]

(* -- Rule 2: no-unseeded-random -------------------------------------- *)

let no_unseeded_random =
  {
    id = "no-unseeded-random";
    severity = Finding.Error;
    doc =
      "the global Random generator (and Random.self_init) is unseeded, \
       shared across domains and order-sensitive; thread a Leotp_util.Rng \
       / Random.State value instead";
    applies = everywhere;
    check =
      (fun ~emit st ->
        iter_idents
          (fun name loc ->
            match String.split_on_char '.' name with
            | [ "Random"; "State" ] | "Random" :: "State" :: _ -> ()
            | [ "Random"; "self_init" ] ->
              emit ~loc
                "Random.self_init seeds from the environment; every run \
                 must derive its generator from the experiment seed"
            | [ "Random"; _ ] ->
              emit ~loc
                "global Random generator is shared mutable state; thread \
                 a Leotp_util.Rng (Random.State) through instead"
            | _ -> ())
          st);
  }

(* -- Rule 3: ordered-iteration --------------------------------------- *)

let hashtbl_order_fns = [ "Hashtbl.iter"; "Hashtbl.fold" ]
let sort_fns = [ "List.sort"; "List.stable_sort"; "List.sort_uniq" ]

let same_start (a : Location.t) (b : Location.t) =
  a.loc_start.pos_cnum = b.loc_start.pos_cnum
  && a.loc_start.pos_fname = b.loc_start.pos_fname

(* Hashtbl iteration order is representation-dependent, so results that
   escape (lists of keys, printed lines, trace events) depend on
   insertion history and hashing.  The one idiom we can recognise as
   safe syntactically is sorting the collected result *immediately*:
   [List.sort cmp (Hashtbl.fold f tbl init)].  Anything else needs an
   explicit [@leotp.allow "ordered-iteration"] with a justification. *)
let ordered_iteration =
  {
    id = "ordered-iteration";
    severity = Finding.Error;
    doc =
      "Hashtbl.iter/fold order is nondeterministic; sort the result \
       in-place (List.sort over the fold) or justify with an allow";
    applies = lib_only;
    check =
      (fun ~emit st ->
        let sanctioned = ref [] in
        let uses = ref [] in
        let it =
          object
            inherit Ast_traverse.iter as super

            method! expression e =
              (match e.pexp_desc with
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt = sorter; _ }; _ }, args)
                when List.mem (ident_name sorter) sort_fns ->
                List.iter
                  (fun ((_, arg) : arg_label * expression) ->
                    match arg.pexp_desc with
                    | Pexp_apply
                        (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn), _)
                      when List.mem (ident_name txt) hashtbl_order_fns ->
                      sanctioned := fn.pexp_loc :: !sanctioned
                    | _ -> ())
                  args
              | Pexp_ident { txt; _ }
                when List.mem (ident_name txt) hashtbl_order_fns ->
                uses := e.pexp_loc :: !uses
              | _ -> ());
              super#expression e
          end
        in
        it#structure st;
        List.iter
          (fun loc ->
            if not (List.exists (same_start loc) !sanctioned) then
              emit ~loc
                "Hashtbl iteration order is nondeterministic; sort the \
                 collected result (List.sort over the fold) or add a \
                 justified [@leotp.allow \"ordered-iteration\"]")
          (List.rev !uses));
  }

(* -- Rule 4: no-global-mutable-state --------------------------------- *)

let mutable_creators =
  [
    "ref";
    "Hashtbl.create";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
    "Array.make";
    "Bytes.create";
    "Mutex.create";
    "Atomic.make";
  ]

let rec creator_of_rhs (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) -> creator_of_rhs inner
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let n = ident_name txt in
    if List.mem n mutable_creators then Some n else None
  | _ -> None

(* Only *top-level* bindings are flagged: a ref local to a function is
   per-call state, but a module-level ref/Hashtbl is shared by every
   Domain_pool job and breaks --jobs N determinism.  The structure walk
   enters nested top-level modules but not expressions; only right-hand
   sides and locations are read, so no path qualifies the names. *)
let no_global_mutable_state =
  {
    id = "no-global-mutable-state";
    severity = Finding.Error;
    doc =
      "module-level ref/Hashtbl/Buffer/... in lib/ is shared across \
       Domain_pool jobs; state must be threaded through values";
    applies = lib_only;
    check =
      (fun ~emit st ->
        List.iter
          (fun (d : Callgraph.def) ->
            match creator_of_rhs d.expr with
            | Some n ->
              emit ~loc:d.loc
                (Printf.sprintf
                   "top-level mutable state (%s) is shared across Domain_pool \
                    jobs and breaks --jobs N determinism; thread it through \
                    function arguments or add a justified [@leotp.allow \
                    \"no-global-mutable-state\"]"
                   n)
            | None -> ())
          (Callgraph.bindings ~path:"" st));
  }

(* -- Rule 5: no-direct-print ----------------------------------------- *)

let no_direct_print =
  let msg =
    "direct stdout/stderr write in lib/; route output through \
     Leotp_scenario.Report (or Logs) so formatting lives in one module"
  in
  banned_idents ~id:"no-direct-print" ~severity:Finding.Error
    ~doc:
      "lib/ must not print directly; all experiment output goes through \
       Leotp_scenario.Report or Logs"
    ~applies:lib_only
    (List.map
       (fun f -> (f, msg))
       [
         "Printf.printf";
         "Printf.eprintf";
         "Format.printf";
         "Format.eprintf";
         "print_endline";
         "print_string";
         "print_newline";
         "print_char";
         "print_int";
         "print_float";
         "prerr_endline";
         "prerr_string";
         "prerr_newline";
         "Stdlib.print_endline";
         "Stdlib.print_string";
         "Stdlib.print_newline";
         "Stdlib.Printf.printf";
       ])

(* -- Rule 6: no-polymorphic-compare-on-float ------------------------- *)

let poly_compare_fns =
  [ "="; "<>"; "=="; "!="; "compare"; "Stdlib.compare"; "Stdlib.=" ]

let poly_sort_fns =
  sort_fns
  @ [ "List.fast_sort"; "Array.sort"; "Array.stable_sort"; "Array.fast_sort" ]

(* Functions of the Float module that do *not* return float (so their
   result is safe to compare polymorphically). *)
let float_fns_not_float =
  [
    "Float.equal";
    "Float.compare";
    "Float.is_nan";
    "Float.is_finite";
    "Float.is_integer";
    "Float.to_int";
    "Float.to_string";
    "Float.sign_bit";
    "Float.classify_float";
  ]

let float_constants =
  [
    "Float.infinity";
    "Float.neg_infinity";
    "Float.nan";
    "Float.pi";
    "Float.max_float";
    "Float.min_float";
    "Float.epsilon";
    "infinity";
    "neg_infinity";
    "nan";
    "max_float";
    "min_float";
    "epsilon_float";
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "**"; "~-." ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Syntactic evidence that an expression is a float: a float literal, a
   float type annotation, float arithmetic, a Float.* call that returns
   float, or a well-known float constant. *)
let floatish (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint
      (_, { ptyp_desc = Ptyp_constr ({ txt = Lident "float"; _ }, []); _ }) ->
    true
  | Pexp_ident { txt; _ } -> List.mem (ident_name txt) float_constants
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let n = ident_name txt in
    List.mem n float_ops
    || n = "abs_float" || n = "float_of_int"
    || (starts_with ~prefix:"Float." n && not (List.mem n float_fns_not_float))
  | _ -> false

(* Combinators whose lambda argument's result populates the structure
   they build: [List.map (fun h -> Float.round ...) hops] is a float
   list. *)
let float_struct_builders =
  [
    "List.map";
    "List.mapi";
    "List.rev_map";
    "List.filter_map";
    "List.concat_map";
    "List.init";
    "Array.map";
    "Array.mapi";
    "Array.init";
  ]

let rec type_mentions_float (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) ->
    ident_name txt = "float" || List.exists type_mentions_float args
  | Ptyp_tuple ts -> List.exists type_mentions_float ts
  | _ -> false

let rec lambda_body (e : expression) =
  match e.pexp_desc with
  | Pexp_function (_, _, Pfunction_body inner) -> lambda_body inner
  | Pexp_constraint (inner, _) -> lambda_body inner
  | _ -> e

(* [floatish] lifted through structure: options, tuples, list cells,
   refs, map-style builders and let-bound names ([env]) whose right-hand
   side was itself float-bearing — so [prev <> Some sig_] is caught when
   [sig_] was built from float data. *)
let rec floatish_deep env (e : expression) =
  floatish e
  ||
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> Hashtbl.mem env x
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Lident ("!" | "ref"); _ }; _ }, [ (_, r) ])
    ->
    floatish_deep env r
  | Pexp_constraint (_, t) -> type_mentions_float t
  | Pexp_tuple es -> List.exists (floatish_deep env) es
  | Pexp_construct ({ txt = Lident "Some"; _ }, Some arg) ->
    floatish_deep env arg
  | Pexp_construct
      ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    ->
    floatish_deep env hd || floatish_deep env tl
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
    List.mem (ident_name txt) float_struct_builders
    && List.exists
         (fun ((_, a) : _ * expression) ->
           match a.pexp_desc with
           | Pexp_function _ -> floatish_deep env (lambda_body a)
           | _ -> false)
         args
  | _ -> false

(* Let-bound names with float-bearing right-hand sides, to a fixpoint
   (a binding may reference an earlier float-bearing binding). *)
let collect_float_names st =
  let env = Hashtbl.create 16 in
  let grew = ref true in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! value_binding vb =
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt; _ }
          when (not (Hashtbl.mem env txt))
               && floatish_deep env vb.pvb_expr ->
          Hashtbl.add env txt ();
          grew := true
        | _ -> ());
        super#value_binding vb

      (* A ref assigned a float-bearing value ([r := (d *. k, i) :: !r])
         is float-bearing, and so is everything read from it. *)
      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident ":="; _ }; _ },
              [ (_, { pexp_desc = Pexp_ident { txt = Lident r; _ }; _ }); (_, v) ]
            )
          when (not (Hashtbl.mem env r)) && floatish_deep env v ->
          Hashtbl.add env r ();
          grew := true
        | _ -> ());
        super#expression e

      (* Annotated binders anywhere — [(a : float list)] parameters,
         let-patterns — carry their own evidence. *)
      method! pattern p =
        (match p.ppat_desc with
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, t)
          when (not (Hashtbl.mem env txt)) && type_mentions_float t ->
          Hashtbl.add env txt ();
          grew := true
        | _ -> ());
        super#pattern p
    end
  in
  while !grew do
    grew := false;
    it#structure st
  done;
  env

let no_poly_float_compare =
  {
    id = "no-polymorphic-compare-on-float";
    severity = Finding.Error;
    doc =
      "polymorphic =/compare on floats (or float-containing structures, \
       also as a List/Array sort comparator) is boxed and nan-unsound; use \
       Float.equal / Float.compare (compose with Option.equal / List.equal)";
    applies = lib_only;
    check =
      (fun ~emit st ->
        let env = collect_float_names st in
        let it =
          object
            inherit Ast_traverse.iter as super

            method! expression e =
              (match e.pexp_desc with
              | Pexp_apply
                  (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn), args)
                when List.mem (ident_name txt) poly_compare_fns
                     && List.length args >= 2
                     && List.exists (fun (_, a) -> floatish_deep env a) args ->
                emit ~loc:fn.pexp_loc
                  (Printf.sprintf
                     "polymorphic %s on a float-bearing operand (boxed, \
                      nan-unsound); use Float.equal / Float.compare \
                      (compose with Option.equal / List.equal)"
                     (ident_name txt))
              | Pexp_apply
                  ( { pexp_desc = Pexp_ident { txt = sorter; _ }; _ },
                    (Nolabel, ({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn))
                    :: data )
                when List.mem (ident_name sorter) poly_sort_fns
                     && List.mem (ident_name txt) [ "compare"; "Stdlib.compare" ]
                     && List.exists (fun (_, a) -> floatish_deep env a) data ->
                emit ~loc:fn.pexp_loc
                  (Printf.sprintf
                     "polymorphic %s as the comparator of %s over \
                      float-bearing data (boxed, nan-unsound); compare \
                      components with Float.compare / Int.compare"
                     (ident_name txt) (ident_name sorter))
              | _ -> ());
              super#expression e
          end
        in
        it#structure st);
  }

(* -- Rule 7: missing-interface --------------------------------------- *)

(* The AST check is a no-op: the engine implements this rule from the
   file system (does [foo.mli] sit next to [foo.ml]?).  It is registered
   here so that --rules, the docs and allow-validation see it. *)
let missing_interface_id = "missing-interface"

let missing_interface =
  {
    id = missing_interface_id;
    severity = Finding.Warning;
    doc =
      "every module under lib/ should have an .mli so its public \
       surface is explicit";
    applies = lib_only;
    check = (fun ~emit:_ _ -> ());
  }

(* -- Rule 9: hot-path-alloc ------------------------------------------ *)

(* Packets are pooled (Leotp_net.Packet_pool): the steady-state hot path
   allocates ~zero words per packet because every sink recycles the flat
   record.  Direct allocation via [Packet.blank] bypasses the free list,
   and [Packet.assign_fresh_id] consumes a fresh id — the deterministic
   id sequence that --jobs N bit-identity rests on — so both are
   restricted to the packet/pool/wire layer itself.  The file allowlist
   keys on the location's filename (the engine parses with the real path),
   so the rule needs no plumbing through [applies]. *)

let hot_path_sanctioned_files =
  [ "packet.ml"; "packet_pool.ml"; "wire.ml" ]

let hot_path_banned =
  let blank_msg =
    "direct packet allocation bypasses the pool's free list; use \
     Packet_pool.acquire (or a Wire constructor) so the record is \
     recycled, or add a justified [@leotp.allow \"hot-path-alloc\"]"
  in
  let id_msg =
    "fresh packet ids may only be consumed inside the wire codecs \
     (Packet_pool.acquire / Wire.restamp_*); consuming one elsewhere \
     perturbs the deterministic id sequence behind --jobs N bit-identity"
  in
  [
    ("Packet.blank", blank_msg);
    ("Leotp_net.Packet.blank", blank_msg);
    ("Packet.assign_fresh_id", id_msg);
    ("Leotp_net.Packet.assign_fresh_id", id_msg);
  ]

let hot_path_alloc =
  {
    id = "hot-path-alloc";
    severity = Finding.Error;
    doc =
      "packet records are pool-recycled; allocate via Packet_pool.acquire \
       / the Wire constructors, never Packet.blank, and consume fresh ids \
       only inside the wire codecs";
    applies = everywhere;
    check =
      (fun ~emit st ->
        iter_idents
          (fun name loc ->
            if
              not
                (List.mem
                   (Filename.basename loc.loc_start.pos_fname)
                   hot_path_sanctioned_files)
            then
              match List.assoc_opt name hot_path_banned with
              | Some msg -> emit ~loc msg
              | None -> ())
          st);
  }

(* -- The interprocedural rules ----------------------------------------- *)

(* Their AST checks are no-ops: the analyses run across files and live
   in Race, Own and Dim, which define each id and rationale.  Listing
   them here makes --rules show them and lets allow-validation accept
   their [@leotp.allow]s. *)
let interprocedural (id, doc) =
  { id; severity = Finding.Error; doc; applies = everywhere;
    check = (fun ~emit:_ _ -> ()) }

let all =
  [
    no_wall_clock;
    no_unseeded_random;
    ordered_iteration;
    no_global_mutable_state;
    no_direct_print;
    no_poly_float_compare;
    missing_interface;
  ]
  @ List.map interprocedural Race.rules
  @ [ hot_path_alloc ]
  @ List.map interprocedural (Own.rules @ Dim.rules)

let known_ids = List.map (fun r -> r.id) all
