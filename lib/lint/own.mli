(** leotp-own: interprocedural packet-ownership, allocation-effect and
    time-taint analysis.

    Three rule families over the syntactic call graph:

    - {b ownership} ([own-leak], [own-double-release],
      [own-use-after-release], [own-escape], [own-annotation]) — every
      [Packet.t] born at [Packet_pool.acquire]/[clone] must be released
      exactly once or handed to a consuming/transferring callee.  Roles
      are inferred per parameter by a call-graph fixpoint and can be
      pinned with [[@leotp.owns "consumes p"]] (grammar:
      ["consumes|transfers|borrows [param ...]"] or ["source"]).
    - {b allocation effects} ([hot-path-may-alloc]) — may-allocate
      evidence (closures, tuples, records, list cells, known
      allocating calls, partial application) propagated from the
      per-packet hot roots (engine dispatch, [Shr.on_packet],
      [Seg_store]'s rank operations, the packet pool, datapath timer
      closures).
    - {b time taint} ([time-taint]) — wall-clock reads reachable from
      the sim-time stratum (lib/ minus lib/lint), even through
      harness-stratum helpers.

    Findings carry race.ml-style witness paths and respect
    [[@leotp.allow "rule-id"]]. *)

val leak_id : string
val double_id : string
val uar_id : string
val escape_id : string
val annot_id : string
val alloc_id : string
val taint_id : string

val rules : (string * string) list
(** Each rule id above with its one-line rationale, for the registry. *)

val analyze : Callgraph.parsed list -> Finding.t list
(** Run all three families over parsed units, as {!Callgraph.load} and
    {!Callgraph.of_sources} yield them (sorted by path); findings are
    ordered by {!Finding.compare}, so output is byte-stable. *)

val analyze_sources : (string * string) list -> Finding.t list
(** Like {!analyze} for in-memory sources (tests); unparsable sources
    are skipped. *)
