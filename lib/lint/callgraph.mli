(** The leotp-lint front end and interprocedural kernel.

    {!load} reads and parses each file once and attaches its
    [[@leotp.allow]] set; {!bindings} is the one structure walk;
    {!scan} lists a body's identifier references and the closures it
    hands to a sink set.  The kernel (index, emitter, fixpoint,
    first-witness reachability, elision) serves the interprocedural
    passes {!Race}, {!Own} and {!Dim}; the per-file rules run through
    {!Engine}.  Last comes the race pass's call graph
    ({!of_structure}). *)

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
    Over-approximates on collisions; every pass reports per-file
    witnesses, so collisions surface visibly rather than silently. *)

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

(** {2 The structure walk} *)

type fbody = Body of expression | Cases of case list

type param = {
  pname : string;  (** ["_"] when the pattern is not a plain variable *)
  plabel : arg_label;
  ppat : pattern option;  (** [None] for the scrutinee of a [function] *)
}

type binding = {
  qname : string;
      (** module-qualified, file module included: ["Runner.set_jobs"];
          ["<Scope>.<top:LINE>"] when the pattern is not a variable *)
  scope : string list;  (** enclosing module path, e.g. [["Runner"]] *)
  loc : Location.t;
  named : bool;
  expr : expression;  (** the right-hand side *)
  attrs : attributes;
  params : param list;  (** [[]] unless {!is_function} [expr] *)
  body : fbody;  (** [Body expr] unless {!is_function} [expr] *)
}

val bindings : path:string -> structure -> binding list
(** Every value binding in source order, recursing through nested
    (named) modules, module constraints, functor bodies and includes. *)

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

val closure_qname : string -> string -> expression -> string
(** [closure_qname parent kind c] is ["<parent>.<kind:LINE:COL>"], the
    name of a synthetic def for closure [c]. *)

(** {2 The kernel} *)

type 'a index

val index : ('a -> string * string) -> 'a list -> 'a index
(** Index items by the leaf of their qname; the key function gives
    (file, qname). *)

val resolve : 'a index -> scope:string list -> string -> 'a list
(** Items a reference written inside [scope] {!resolves} to, ordered
    by (file, qname). *)

val memo : ('a -> 'k) -> ('a -> 'v) -> 'a -> 'v
(** Per-key table whose entries [init] creates on first use: the
    summary store of a pass. *)

val fixpoint : (unit -> bool) -> unit
(** Run a round (which says whether any summary grew) until none
    does, at most 12 rounds. *)

val first_witness :
  ('a -> string * string) ->
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

(** {2 The race pass's call graph}

    Nodes are top-level function bindings plus one synthetic
    {e entrypoint} node per literal closure passed to a domain-spawning
    sink ([Domain.spawn], [Domain_pool.submit]/[run]/[map]).  Each node
    carries the raw identifier references of its body, tagged with
    whether they sit inside a recognised critical section
    ([Guarded.with_]/[await]/[get]/[set] argument, an [Atomic] /
    [Atomic_counter] operation, or code sequenced after a
    [Mutex.lock]). *)

type reference = {
  name : string;  (** dotted path exactly as written, e.g. "Runner.map" *)
  loc : Location.t;
  guarded : bool;  (** inside a recognised critical section / atomic op *)
}

type def = {
  qname : string;  (** entrypoint closures: ["<parent>.<entry:LINE:COL>"] *)
  scope : string list;
  loc : Location.t;
  entry : bool;  (** a closure passed straight to a domain-spawning sink *)
  refs : reference list;
}

type global = {
  gqname : string;
  gloc : Location.t;
  creator : string;
      (** which constructor made it mutable: ["ref"],
          ["Hashtbl.create"], ["[| |]"], ... or ["mutable-field"] when
          inferred from a [x.f <- e] assignment *)
}

type t = {
  file : string;
  module_name : string;
  defs : def list;
  globals : global list;
      (** top-level bindings whose right-hand side is a known mutable
          creator.  [Atomic.make] and [Mutex.create] are deliberately
          not tracked: atomics only admit atomic operations, and a
          mutex is a guard. *)
  bindings : (string * Location.t) list;
      (** every named top-level value binding, mutable or not *)
  entry_names : reference list;
      (** named functions passed to a spawning sink *)
  setfields : reference list;
      (** receivers of [x.f <- e]: evidence that a binding holds a
          mutable record *)
}

val of_structure : path:string -> structure -> t
(** Build the graph for one parsed unit; [path] determines the file
    module name. *)
