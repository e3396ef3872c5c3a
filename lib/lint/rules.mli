(** The leotp-lint rule registry.

    Rules are syntactic (parsetree-level) checks with a severity and a
    path scope.  [Error]-severity findings fail the build; [Warning]
    findings are advisory.  Every rule can be silenced with
    [[@leotp.allow "rule-id"]] on a binding/expression or
    [[@@@leotp.allow "rule-id"]] for the whole file. *)

type scope = Callgraph.scope = Lib | Bench | Bin | Other
(** Path scope of a file, from {!Callgraph.place}. *)

type emit = loc:Ppxlib.Location.t -> string -> unit

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;  (** one-line rationale, shown by [--rules] *)
  applies : scope -> bool;
  check : emit:emit -> Ppxlib.Parsetree.structure -> unit;
}

val missing_interface_id : string
(** The one rule not driven by the AST: the engine checks for a sibling
    [.mli] on the file system and reports under this id. *)

val all : t list
(** The per-file rules, then the interprocedural ids of {!Race}, {!Own}
    and {!Dim} (no-op checks, listed for [--rules] and
    allow-validation). *)

val known_ids : string list
