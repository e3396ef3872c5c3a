(** The leotp-lint front end and interprocedural kernel.

    {!load} reads and parses each file once and attaches its
    [[@leotp.allow]] set; {!bindings} is the one structure walk, and
    {!defs} is the one def table of the interprocedural passes {!Race},
    {!Own} and {!Dim}; {!scan} lists a body's identifier references and
    the closures it hands to a sink set.  The kernel (index, summary
    memo, fixpoint, first-witness reachability, elision, emitter) keys
    every table by def identity ({!key}), so same-named bindings are
    separate defs.  The per-file rules run through {!Engine}. *)

open Ppxlib

(** {2 Names} *)

val ident_name : Longident.t -> string
(** Dotted path as written; ["_"] for a functor application
    ([Set.Make(Int).t]), which no rule or pass matches. *)

val leaf : string -> string
(** Last dotted segment. *)

val line : Location.t -> int
val col : Location.t -> int

val resolves : scope:string list -> written:string -> qname:string -> bool
(** Best-effort name resolution: does [written], appearing inside
    module path [scope], plausibly denote [qname]?  Bare names
    resolve along the enclosing-module chain only; dotted names match
    by segment suffix in either direction (so both
    ["Leotp_scenario.Runner.map"] and ["Runner.map"] reach
    ["Runner.map"], and ["Inner.f"] reaches ["Mod.Inner.f"]).
    Over-approximates on collisions: a reference to a name bound twice
    resolves to both defs, and every pass follows all of them.  Every
    pass reports per-file witnesses, so collisions surface visibly
    rather than silently. *)

val ends_with_any : string list -> string -> bool
(** Does the dotted name end with one of the listed dotted names? *)

val range_of : Location.t -> int * int
(** Character range of a location. *)

val in_range : int * int -> Location.t -> bool
(** Does the location start inside the character range? *)

(** {2 Paths} *)

type scope = Lib | Bench | Bin | Other

type place = {
  scope : scope;
  lib_dir : string option;  (** segment after the first [lib] segment *)
}

val place : string -> place
(** The one path classifier.  The first ['lib'] segment anywhere in the
    '/'-separated path decides (then ['bench'], then ['bin']), so
    ["lib/core/a.ml"], ["./lib/core/a.ml"] and ["/x/lib/core/a.ml"] are
    all [Lib] with [lib_dir = Some "core"]. *)

(** {2 Loading} *)

type allows = {
  file_level : string list;  (** [[@@@leotp.allow]] rule ids *)
  scoped : (string * (int * int)) list;  (** rule id, character range *)
  malformed : Location.t list;  (** payload not a single string *)
  ids : (string * Location.t) list;  (** every well-formed payload *)
}

val suppressed : allows -> rule:string -> loc:Location.t -> bool
(** Is [rule] allowed at [loc] — by a file-level allow or an
    item/expression allow whose range contains [loc]? *)

type parsed = { path : string; ast : structure; allows : allows }

val parse_impl : path:string -> string -> (structure, string) result
(** Parse one implementation with positions attributed to [path]. *)

val parse : path:string -> string -> (parsed, Finding.t) result
(** Parse and collect allows; a failure is a ["parse-error"] finding. *)

val of_sources : (string * string) list -> parsed list
(** In-memory sources ([(path, contents)]), sorted by path;
    unparsable ones are skipped. *)

val load : string list -> int * parsed list * Finding.t list
(** Every [.ml] under the given files/directories (skipping [_build],
    dot-dirs, [_opam], [node_modules]), read and parsed once, sorted by
    path: the file count, the parsed units, and a ["parse-error"]
    finding for each missing root or unreadable/unparsable file. *)

(** {2 The def table} *)

type fbody = Body of expression | Cases of case list

type param = {
  pname : string;  (** ["_"] when the pattern is not a plain variable *)
  plabel : arg_label;
  ppat : pattern option;  (** [None] for the scrutinee of a [function] *)
}

type def = {
  file : string;  (** path of the unit the def lives in *)
  qname : string;
      (** module-qualified, file module included: ["Runner.set_jobs"];
          ["<Scope>.<top:LINE>"] when the pattern is not a variable;
          ["<parent>.<kind:LINE:COL>"] for a {!closure_def} *)
  scope : string list;  (** enclosing module path, e.g. [["Runner"]] *)
  loc : Location.t;
  named : bool;
  expr : expression;  (** the right-hand side, or the closure *)
  attrs : attributes;
  params : param list;  (** [[]] unless {!is_function} [expr] *)
  body : fbody;  (** [Body expr] unless {!is_function} [expr] *)
}

type key = string * string * int
(** A def's identity: (file, qname, start offset). *)

val key : def -> key

val bindings : path:string -> structure -> def list
(** Every value binding of one unit in source order, as defs of file
    [path], recursing through nested modules, module constraints,
    functor bodies and includes.  An anonymous [module _ = struct ...
    end] keeps the enclosing scope. *)

val defs : parsed list -> def list
(** {!bindings} of every unit, in unit order. *)

val closure_def : def -> string -> expression -> def
(** [closure_def parent kind c] is literal closure [c], found in
    [parent]'s body, as a def of its own: qname
    ["<parent>.<kind:LINE:COL>"], [parent]'s file and scope, no
    attributes, and [c]'s parameters and body. *)

val is_lambda : expression -> bool
(** A [fun]/[function] literal. *)

val is_function : expression -> bool
(** A [fun]/[function] literal, possibly under one type constraint. *)

val peel : expression -> param list * fbody
(** The flat parameter list and innermost body of a [fun]-chain; a
    [function] adds its scrutinee as a last, unnamed parameter. *)

val param_of : function_param -> param option

val binding_name : value_binding -> string option
(** The variable a binding binds, if its pattern is one. *)

val payloads : string -> attributes -> (string * Location.t) list
(** String payloads of every attribute with that name; [""] for a
    payload that is not a single string literal. *)

val scan :
  ?visit:(expression -> unit) ->
  sinks:string list ->
  is_closure:(expression -> bool) ->
  expression ->
  (string * Location.t) list * expression list
(** The identifier references of an expression, in source order, and
    the arguments satisfying [is_closure] of every call whose head ends
    with one of [sinks].  [visit] sees every sub-expression. *)

val exists_ident : (string -> bool) -> expression -> bool
(** Does some identifier of the expression (dotted path as written)
    satisfy the predicate?  Stops at the first that does. *)

(** {2 The kernel}

    Each table takes a projection ['a -> def] from the pass's own node
    type and is keyed by the {!key} of the def it projects to. *)

type 'a index

val index : ('a -> def) -> 'a list -> 'a index
(** Index items by the leaf of their def's qname. *)

val resolve : 'a index -> scope:string list -> string -> 'a list
(** Items a reference written inside [scope] {!resolves} to, ordered
    by {!key}. *)

val memo : ('a -> def) -> ('a -> 'v) -> 'a -> 'v
(** Per-def table whose entries [init] creates on first use: the
    summary store of a pass. *)

val fixpoint : (unit -> bool) -> unit
(** Run a round (which says whether any summary grew) until none
    does, at most 12 rounds. *)

val first_witness :
  ('a -> def) ->
  direct:('a -> 'w option) ->
  succs:('a -> 'a list) ->
  'a ->
  ('w * string list) option
(** Memoised first-witness reachability: the first [direct] witness
    found depth-first along [succs], with the qnames of the chain from
    the start to the item holding it.  Back edges of cycles count as
    no witness. *)

val elide : max:int -> head:int -> tail:int -> string list -> string list
(** Keep a witness of up to [max] steps whole; otherwise keep [head]
    and [tail] steps around ["... N more ..."]. *)

type emitter

val emitter : parsed list -> emitter

val suppressed_at : emitter -> file:string -> rule:string -> Location.t -> bool

val emit :
  emitter -> ?key:string -> file:string -> rule:string -> loc:Location.t ->
  string -> unit
(** Record an error finding unless its rule is allowed at [loc] or one
    with the same (file, line, col, [key]) came first ([key] defaults
    to the rule id). *)

val findings : emitter -> Finding.t list
(** Everything emitted, sorted and deduplicated. *)
