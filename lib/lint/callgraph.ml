(* The leotp-lint front end and interprocedural kernel.

   Every pass starts here.  [load] reads and parses each file once and
   attaches its [@leotp.allow] set; [bindings] is the one structure walk
   (module-qualified value bindings through nested and anonymous
   modules, module constraints and functor bodies), and [defs] turns
   the parsed units into the one def table the race, own and dim passes
   share.  [scan] lists a body's raw identifier references and the
   literal closures it hands to a given sink set; [closure_def] makes
   such a closure a def of its own.

   The kernel gives the interprocedural passes what they share: name
   resolution over a leaf-name index, the path classifier, a
   suppress-and-dedupe emitter, the bounded summary fixpoint, memoised
   first-witness reachability and witness elision.  Its index, summary
   memo and witness table are all keyed by def identity, [key] =
   (file, qname, start offset), so two same-named bindings in one module
   are two defs with a summary each. *)

open Ppxlib

(* ------------------------------------------------------------------ *)
(* Names and matching *)

let ident_name (lid : Longident.t) =
  match lid with
  | Lident s -> s
  | _ -> (
    match Longident.flatten_exn lid with
    | exception _ -> "_"
    | parts -> String.concat "." parts)

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
(* The structure walk: the one def table *)

type fbody = Body of expression | Cases of case list

type param = { pname : string; plabel : arg_label; ppat : pattern option }

type def = {
  file : string;
  qname : string;
  scope : string list;
  loc : Location.t;
  named : bool;
  expr : expression;
  attrs : attributes;
  params : param list;
  body : fbody;
}

type key = string * string * int

let key d = (d.file, d.qname, d.loc.loc_start.pos_cnum)

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
      List.iter (fun vb -> acc := of_binding scope vb :: !acc) vbs
    | Pstr_module mb -> module_binding scope mb
    | Pstr_recmodule mbs -> List.iter (module_binding scope) mbs
    | Pstr_include { pincl_mod; _ } -> module_expr scope pincl_mod
    | _ -> ()
  (* [module _ = struct ... end] keeps the enclosing scope *)
  and module_binding scope (mb : module_binding) =
    match mb.pmb_name.txt with
    | Some name -> module_expr (scope @ [ name ]) mb.pmb_expr
    | None -> module_expr scope mb.pmb_expr
  and module_expr scope (me : module_expr) =
    match me.pmod_desc with
    | Pmod_structure sis -> items scope sis
    | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_expr scope me
    | _ -> ()
  and of_binding scope (vb : value_binding) =
    let name = binding_name vb in
    let params, body =
      if is_function vb.pvb_expr then peel vb.pvb_expr
      else ([], Body vb.pvb_expr)
    in
    {
      file = path;
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

let defs units =
  List.concat_map (fun (u : parsed) -> bindings ~path:u.path u.ast) units

let closure_def parent kind (c : expression) =
  let params, body = peel c in
  {
    parent with
    qname =
      Printf.sprintf "%s.<%s:%d:%d>" parent.qname kind (line c.pexp_loc)
        (col c.pexp_loc);
    loc = c.pexp_loc;
    named = false;
    expr = c;
    attrs = [];
    params;
    body;
  }

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

exception Found

let exists_ident p root =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } when p (ident_name txt) -> raise_notrace Found
        | _ -> ());
        super#expression e
    end
  in
  match it#expression root with () -> false | exception Found -> true

(* ------------------------------------------------------------------ *)
(* The kernel: every table is keyed by def identity *)

type 'a index = { def_of : 'a -> def; by_leaf : (string, 'a) Hashtbl.t }

let index def_of items =
  let by_leaf = Hashtbl.create 512 in
  List.iter (fun x -> Hashtbl.add by_leaf (leaf (def_of x).qname) x) items;
  { def_of; by_leaf }

let resolve idx ~scope written =
  Hashtbl.find_all idx.by_leaf (leaf written)
  |> List.filter (fun x -> resolves ~scope ~written ~qname:(idx.def_of x).qname)
  |> List.sort (fun a b -> compare (key (idx.def_of a)) (key (idx.def_of b)))

let memo def_of init =
  let tbl = Hashtbl.create 512 in
  fun x ->
    let k = key (def_of x) in
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = init x in
      Hashtbl.replace tbl k v;
      v

let fixpoint round =
  let rec go n = if n < 12 && round () then go (n + 1) in
  go 0

let first_witness def_of ~direct ~succs =
  let tbl = Hashtbl.create 256 in
  let rec go x =
    let d = def_of x in
    let k = key d in
    match Hashtbl.find_opt tbl k with
    | Some w -> w
    | None ->
      (* cycles resolve to no witness on the back edge *)
      Hashtbl.replace tbl k None;
      let w =
        match direct x with
        | Some w -> Some (w, [ d.qname ])
        | None ->
          List.find_map
            (fun y ->
              Option.map (fun (w, chain) -> (w, d.qname :: chain)) (go y))
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
