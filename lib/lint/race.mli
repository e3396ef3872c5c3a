(** leotp-race: interprocedural domain-safety analysis.

    Reports rule ["domain-unsafe-access"] (error) for every access to a
    top-level mutable value — a [ref] / [Hashtbl] / array / queue
    creator, or a binding some code field-assigns — that is transitively
    reachable from a domain entrypoint (a closure passed to
    [Domain.spawn] or [Domain_pool.submit]/[run]/[map]) and is not
    provably inside a critical section ([Guarded.with_]/[await]/[get]/
    [set], an [Atomic]/[Atomic_counter] operation, or code sequenced
    after [Mutex.lock]).  Each finding's message carries a witness
    path: entrypoint → call chain → access site.

    Suppress individual findings with an item-level
    [[@leotp.allow "domain-unsafe-access"]] at the access site.

    The analysis is syntactic and interprocedural but not higher-order:
    thunks stored in data structures (e.g. the job lists handed to
    {!Leotp_scenario.Runner.map}) are not followed — the dynamic
    [--jobs 1] vs [--jobs N] digest-identity tests remain the backstop
    for those.  A name bound twice resolves to both bindings, and both
    are followed. *)

val rule_id : string
(** ["domain-unsafe-access"] *)

val rules : (string * string) list
(** The pass's rule id with its one-line rationale, for the registry. *)

val analyze : Callgraph.parsed list -> Finding.t list
(** Analyze a set of parsed units, as {!Callgraph.load} and
    {!Callgraph.of_sources} yield them (sorted by path); findings are
    sorted and deduplicated. *)

val analyze_sources : (string * string) list -> Finding.t list
(** Parse and analyze in-memory sources ([(path, contents)]); units
    that fail to parse are skipped (use {!Engine.lint_source} to
    surface those). *)
