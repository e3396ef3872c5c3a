(** Per-file rules: run the registry over one parsed unit, apply its
    [[@leotp.allow]] suppressions, report. *)

val lint : ?mli_exists:bool -> Callgraph.parsed -> Finding.t list
(** Lint one parsed unit.  Its path determines the rule scope (lib/ vs
    bench/ vs bin/) and is echoed in findings; pass [~mli_exists] to
    enable the missing-interface check.  Findings are sorted with exact
    duplicates collapsed. *)

val lint_source : path:string -> ?mli_exists:bool -> string -> Finding.t list
(** Parse and lint one compilation unit given as a string.  A file that
    does not parse yields a single ["parse-error"] finding rather than
    an exception. *)
