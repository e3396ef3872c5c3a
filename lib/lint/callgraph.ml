(* The leotp-lint front end and interprocedural kernel.

   Every pass starts here.  [load] reads and parses each file once and
   attaches its [@leotp.allow] set; [bindings] is the one structure walk
   (module-qualified value bindings through nested modules, module
   constraints and functor bodies); [scan] lists a body's raw identifier
   references and the literal closures it hands to a given sink set.
   The kernel then gives the interprocedural passes (Race, Own, Dim)
   what they share: name resolution over a leaf-name index, the path
   classifier, a suppress-and-dedupe emitter, the bounded summary
   fixpoint, memoised first-witness reachability and witness elision.

   The rest is the race pass's call graph: each function binding
   becomes a [def] carrying the identifier references of its body, and
   each closure passed to a domain-spawning sink (Domain.spawn,
   Domain_pool.submit/run/map) a synthetic entrypoint def of its own.

   Guard regions are recorded as character ranges: everything inside an
   argument of Guarded.with_/await/get/set or an Atomic /
   Atomic_counter operation, and everything sequenced after a
   Mutex.lock (the `Mutex.lock l; ...` / `Fun.protect ~finally:unlock`
   idiom), is considered to run inside a critical section; references
   in those ranges are marked [guarded]. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Names and matching *)

let ident_name (lid : Longident.t) =
  match Longident.flatten_exn lid with
  | exception _ -> "_"
  | parts -> String.concat "." parts

let split name = String.split_on_char '.' name
let leaf name = match List.rev (split name) with l :: _ -> l | [] -> name
let line (loc : Location.t) = loc.loc_start.pos_lnum
let col (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let module_name_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let rec is_suffix ~suffix l =
  let ls = List.length suffix and ll = List.length l in
  if ll < ls then false
  else if ll = ls then l = suffix
  else match l with [] -> false | _ :: tl -> is_suffix ~suffix tl

let rec drop_last = function
  | [] | [ _ ] -> []
  | x :: tl -> x :: drop_last tl

(* Does the raw reference [written], appearing inside module path
   [scope], plausibly denote the definition/global [qname]?  Bare names
   resolve only along the enclosing-module chain (OCaml scoping);
   dotted names match by segment suffix in either direction, because
   library-qualified references (Leotp_scenario.Runner.map) are longer
   than our file-level qnames (Runner.map), while references into a
   nested module (Inner.f) are shorter (Mod.Inner.f). *)
let resolves ~scope ~written ~qname =
  let ws = split written and qs = split qname in
  match ws with
  | [ _ ] ->
    let rec chain prefix =
      prefix @ ws = qs || (prefix <> [] && chain (drop_last prefix))
    in
    chain scope
  | _ -> is_suffix ~suffix:ws qs || is_suffix ~suffix:qs ws

let ends_with_any names n =
  let segs = split n in
  List.exists (fun s -> is_suffix ~suffix:(split s) segs) names

let range_of (loc : Location.t) = (loc.loc_start.pos_cnum, loc.loc_end.pos_cnum)

let in_range (s, e) (loc : Location.t) =
  s <= loc.loc_start.pos_cnum && loc.loc_start.pos_cnum <= e

(* ------------------------------------------------------------------ *)
(* Paths *)

type scope = Lib | Bench | Bin | Other
type place = { scope : scope; lib_dir : string option }

(* The first [lib] segment anywhere decides, so ["lib/core/a.ml"],
   ["./lib/core/a.ml"] and ["/abs/x/lib/core/a.ml"] classify alike. *)
let place path =
  let parts =
    List.filter (fun p -> p <> "" && p <> ".") (String.split_on_char '/' path)
  in
  let rec after_lib = function
    | "lib" :: d :: _ -> Some d
    | _ :: tl -> after_lib tl
    | [] -> None
  in
  {
    scope =
      (if List.mem "lib" parts then Lib
       else if List.mem "bench" parts then Bench
       else if List.mem "bin" parts then Bin
       else Other);
    lib_dir = after_lib parts;
  }

(* ------------------------------------------------------------------ *)
(* Attributes and suppressions *)

let string_payload (attr : attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

let payloads name (attrs : attributes) =
  List.filter_map
    (fun (a : attribute) ->
      if a.attr_name.txt = name then
        Some (Option.value (string_payload a) ~default:"", a.attr_loc)
      else None)
    attrs

type allows = {
  file_level : string list;
  scoped : (string * (int * int)) list;
  malformed : Location.t list;
  ids : (string * Location.t) list;
}

let collect_allows st =
  let file_level = ref [] and scoped = ref [] in
  let malformed = ref [] and ids = ref [] in
  let note ~(range : Location.t) ~file attrs =
    List.iter
      (fun (attr : attribute) ->
        if attr.attr_name.txt = "leotp.allow" then
          match string_payload attr with
          | None -> malformed := attr.attr_loc :: !malformed
          | Some rule ->
            ids := (rule, attr.attr_loc) :: !ids;
            if file then file_level := rule :: !file_level
            else scoped := (rule, range_of range) :: !scoped)
      attrs
  in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! structure_item si =
        (match si.pstr_desc with
        | Pstr_attribute attr -> note ~range:si.pstr_loc ~file:true [ attr ]
        | Pstr_eval (_, attrs) -> note ~range:si.pstr_loc ~file:false attrs
        | _ -> ());
        super#structure_item si

      method! expression e =
        note ~range:e.pexp_loc ~file:false e.pexp_attributes;
        super#expression e

      method! value_binding vb =
        note ~range:vb.pvb_loc ~file:false vb.pvb_attributes;
        super#value_binding vb

      method! module_binding mb =
        note ~range:mb.pmb_loc ~file:false mb.pmb_attributes;
        super#module_binding mb
    end
  in
  it#structure st;
  { file_level = !file_level; scoped = !scoped; malformed = !malformed;
    ids = !ids }

let suppressed allows ~rule ~loc =
  List.mem rule allows.file_level
  || List.exists (fun (r, range) -> r = rule && in_range range loc) allows.scoped

(* ------------------------------------------------------------------ *)
(* Loading *)

type parsed = { path : string; ast : structure; allows : allows }

let parse_error ~path message =
  { Finding.rule = "parse-error"; severity = Error; file = path; line = 1;
    col = 0; message }

let parse_impl ~path contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | st -> Ok st
  | exception exn ->
    Error
      (match Location.Error.of_exn exn with
      | Some e -> Location.Error.message e
      | None -> Printexc.to_string exn)

let parse ~path contents =
  match parse_impl ~path contents with
  | Ok ast -> Ok { path; ast; allows = collect_allows ast }
  | Error msg -> Error (parse_error ~path ("file does not parse: " ^ msg))

let of_sources sources =
  List.filter_map
    (fun (path, contents) -> Result.to_option (parse ~path contents))
    sources
  |> List.stable_sort (fun a b -> String.compare a.path b.path)

let skip_dirs = [ "_build"; ".git"; "_opam"; "node_modules" ]

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun name ->
           (not (List.mem name skip_dirs)) && name.[0] <> '.')
    |> List.concat_map (fun name -> ml_files_under (Filename.concat path name))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let load paths =
  let files =
    List.concat_map
      (fun p ->
        if Sys.file_exists p then ml_files_under p
        else [ (* surface missing roots as findings, not silence *) p ])
      paths
    |> List.sort_uniq String.compare
  in
  let units, failures =
    List.partition_map
      (fun f ->
        if not (Sys.file_exists f) then
          Either.Right (parse_error ~path:f "no such file or directory")
        else
          match In_channel.with_open_bin f In_channel.input_all with
          | exception Sys_error msg ->
            Either.Right (parse_error ~path:f ("cannot read: " ^ msg))
          | contents -> (
            match parse ~path:f contents with
            | Ok u -> Either.Left u
            | Error e -> Either.Right e))
      files
  in
  (List.length files, units, failures)

(* ------------------------------------------------------------------ *)
(* The structure walk *)

type fbody = Body of expression | Cases of case list

type param = { pname : string; plabel : arg_label; ppat : pattern option }

type binding = {
  qname : string;
  scope : string list;
  loc : Location.t;
  named : bool;
  expr : expression;
  attrs : attributes;
  params : param list;
  body : fbody;
}

let is_lambda (e : expression) =
  match e.pexp_desc with Pexp_function _ -> true | _ -> false

let is_function (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) -> is_lambda inner
  | _ -> is_lambda e

let rec pat_name (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (inner, _) | Ppat_alias (inner, _) -> pat_name inner
  | _ -> None

let param_of (fp : function_param) =
  match fp.pparam_desc with
  | Pparam_val (plabel, _, pat) ->
    Some
      { pname = Option.value (pat_name pat) ~default:"_"; plabel;
        ppat = Some pat }
  | Pparam_newtype _ -> None

(* Peel the (possibly nested) [fun]-chain of a binding RHS into a flat
   parameter list and the innermost body; a [function] adds its
   scrutinee as a last, unnamed parameter. *)
let peel e =
  let rec go acc (e : expression) =
    match e.pexp_desc with
    | Pexp_function (ps, _, Pfunction_body inner) -> go (acc @ ps) inner
    | Pexp_function (ps, _, Pfunction_cases (cs, _, _)) ->
      let scrutinee = { pname = "_"; plabel = Nolabel; ppat = None } in
      (List.filter_map param_of (acc @ ps) @ [ scrutinee ], Cases cs)
    | Pexp_constraint (inner, _) -> go acc inner
    | _ -> (List.filter_map param_of acc, Body e)
  in
  go [] e

let binding_name (vb : value_binding) =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let bindings ~path st =
  let acc = ref [] in
  let rec items scope sis = List.iter (item scope) sis
  and item scope (si : structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter (fun vb -> acc := binding scope vb :: !acc) vbs
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
      module_expr (scope @ [ name ]) pmb_expr
    | Pstr_recmodule mbs ->
      List.iter
        (fun (mb : module_binding) ->
          match mb.pmb_name.txt with
          | Some name -> module_expr (scope @ [ name ]) mb.pmb_expr
          | None -> ())
        mbs
    | Pstr_include { pincl_mod; _ } -> module_expr scope pincl_mod
    | _ -> ()
  and module_expr scope (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure sis -> items scope sis
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_expr scope me
    | _ -> ()
  and binding scope (vb : value_binding) =
    let name = binding_name vb in
    let params, body =
      if is_function vb.pvb_expr then peel vb.pvb_expr
      else ([], Body vb.pvb_expr)
    in
    {
      qname =
        (match name with
        | Some n -> String.concat "." (scope @ [ n ])
        | None ->
          Printf.sprintf "%s.<top:%d>" (String.concat "." scope)
            (line vb.pvb_loc));
      scope;
      loc = vb.pvb_loc;
      named = name <> None;
      expr = vb.pvb_expr;
      attrs = vb.pvb_attributes;
      params;
      body;
    }
  in
  items [ module_name_of_path path ] st;
  List.rev !acc

let closure_qname parent kind (c : expression) =
  Printf.sprintf "%s.<%s:%d:%d>" parent kind (line c.pexp_loc) (col c.pexp_loc)

let scan ?(visit = ignore) ~sinks ~is_closure root =
  let idents = ref [] and closures = ref [] in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        visit e;
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
          idents := (ident_name txt, e.pexp_loc) :: !idents
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
          when ends_with_any sinks (ident_name txt) ->
          List.iter
            (fun ((_, a) : arg_label * expression) ->
              if is_closure a then closures := a :: !closures)
            args
        | _ -> ());
        super#expression e
    end
  in
  it#expression root;
  (List.rev !idents, List.rev !closures)

(* ------------------------------------------------------------------ *)
(* The kernel *)

type 'a index = { key : 'a -> string * string; by_leaf : (string, 'a) Hashtbl.t }

let index key items =
  let by_leaf = Hashtbl.create 512 in
  List.iter (fun x -> Hashtbl.add by_leaf (leaf (snd (key x))) x) items;
  { key; by_leaf }

let resolve idx ~scope written =
  Hashtbl.find_all idx.by_leaf (leaf written)
  |> List.filter (fun x -> resolves ~scope ~written ~qname:(snd (idx.key x)))
  |> List.sort (fun a b -> compare (idx.key a) (idx.key b))

let memo key init =
  let tbl = Hashtbl.create 512 in
  fun x ->
    match Hashtbl.find_opt tbl (key x) with
    | Some v -> v
    | None ->
      let v = init x in
      Hashtbl.replace tbl (key x) v;
      v

let fixpoint round =
  let rec go n = if n < 12 && round () then go (n + 1) in
  go 0

let first_witness key ~direct ~succs =
  let tbl = Hashtbl.create 256 in
  let rec go x =
    let k = key x in
    match Hashtbl.find_opt tbl k with
    | Some w -> w
    | None ->
      (* cycles resolve to no witness on the back edge *)
      Hashtbl.replace tbl k None;
      let w =
        match direct x with
        | Some d -> Some (d, [ snd k ])
        | None ->
          List.find_map
            (fun y -> Option.map (fun (d, chain) -> (d, snd k :: chain)) (go y))
            (succs x)
      in
      Hashtbl.replace tbl k w;
      w
  in
  go

let elide ~max ~head ~tail steps =
  let n = List.length steps in
  if n <= max then steps
  else
    List.filteri (fun i _ -> i < head) steps
    @ [ Printf.sprintf "... %d more ..." (n - head - tail) ]
    @ List.filteri (fun i _ -> i >= n - tail) steps

type emitter = {
  units : parsed list;
  seen : (string * int * int * string, unit) Hashtbl.t;
  mutable out : Finding.t list;
}

let emitter units = { units; seen = Hashtbl.create 64; out = [] }

let suppressed_at em ~file ~rule loc =
  match List.find_opt (fun u -> u.path = file) em.units with
  | Some u -> suppressed u.allows ~rule ~loc
  | None -> false

let emit em ?key ~file ~rule ~loc message =
  let k = (file, line loc, col loc, Option.value key ~default:rule) in
  if (not (Hashtbl.mem em.seen k)) && not (suppressed_at em ~file ~rule loc)
  then begin
    Hashtbl.replace em.seen k ();
    em.out <-
      { Finding.rule; severity = Error; file; line = line loc; col = col loc;
        message }
      :: em.out
  end

let findings em = List.sort_uniq Finding.compare em.out

(* ------------------------------------------------------------------ *)
(* The race pass's call graph *)

type reference = { name : string; loc : Location.t; guarded : bool }

type def = {
  qname : string;
  scope : string list;
  loc : Location.t;
  entry : bool;
  refs : reference list;
}

type global = { gqname : string; gloc : Location.t; creator : string }

type t = {
  file : string;
  module_name : string;
  defs : def list;
  globals : global list;
  bindings : (string * Location.t) list;
  entry_names : reference list;
  setfields : reference list;
}

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
    let n = ident_name txt in
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
  ends_with_any guard_fns n
  ||
  (* Atomic_counter.incr / Atomic_counter.Sum.add / ... — every
     operation of the counter module is atomic by construction. *)
  List.exists (fun seg -> seg = "Atomic_counter") (split n)

let of_structure ~path st =
  let entry_names = ref [] and setfields = ref [] in
  let unguarded (name, loc) = { name; loc; guarded = false } in
  let defs_of (b : binding) =
    let guards = ref [] in
    let visit (e : expression) =
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let n = ident_name txt in
        List.iter
          (fun ((_, a) : arg_label * expression) ->
            if is_guard_fn n then guards := range_of a.pexp_loc :: !guards;
            match a.pexp_desc with
            | Pexp_ident { txt; _ } when ends_with_any spawn_sinks n ->
              entry_names := unguarded (ident_name txt, a.pexp_loc) :: !entry_names
            | _ -> ())
          args
      | Pexp_sequence
          ({ pexp_desc = Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _); _ }, e2)
        when ends_with_any [ "Mutex.lock" ] (ident_name txt) ->
        guards := range_of e2.pexp_loc :: !guards
      | Pexp_setfield (({ pexp_desc = Pexp_ident { txt; _ }; _ } as recv), _, _) ->
        setfields := unguarded (ident_name txt, recv.pexp_loc) :: !setfields
      | _ -> ()
    in
    let idents, entries =
      scan ~visit ~sinks:spawn_sinks ~is_closure:is_lambda b.expr
    in
    let refs_where pred =
      List.filter_map
        (fun (name, loc) ->
          if pred loc then
            Some { name; loc; guarded = List.exists (fun r -> in_range r loc) !guards }
          else None)
        idents
    in
    let entry_ranges = List.map (fun (e : expression) -> range_of e.pexp_loc) entries in
    (* The binding itself is a node only if it is a function (its body
       runs when called); a plain top-level value's RHS runs once at
       module init, on the main domain, and is never re-entered. *)
    (if is_lambda b.expr then
       [ { qname = b.qname; scope = b.scope; loc = b.loc; entry = false;
           refs =
             refs_where (fun loc ->
                 not (List.exists (fun r -> in_range r loc) entry_ranges)) } ]
     else [])
    (* Each literal closure handed to a spawn sink is its own
       entrypoint node, carrying exactly the refs of its body. *)
    @ List.map
        (fun (e : expression) ->
          { qname = closure_qname b.qname "entry" e; scope = b.scope;
            loc = e.pexp_loc; entry = true;
            refs = refs_where (in_range (range_of e.pexp_loc)) })
        entries
  in
  let bs = bindings ~path st in
  let defs = List.concat_map defs_of bs in
  {
    file = path;
    module_name = module_name_of_path path;
    defs;
    globals =
      List.filter_map
        (fun (b : binding) ->
          Option.map
            (fun creator -> { gqname = b.qname; gloc = b.loc; creator })
            (creator_of_rhs b.expr))
        bs;
    bindings =
      List.filter_map
        (fun (b : binding) -> if b.named then Some (b.qname, b.loc) else None)
        bs;
    entry_names = !entry_names;
    setfields = !setfields;
  }
