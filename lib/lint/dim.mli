(** leotp-dim: interprocedural dimensional analysis.

    Infers a unit of measure for expressions over a small lattice
    (seconds/ms/us, bytes/bits/mb/packets, meters/km, seqno, rates
    [a_per_b], mbps, dimensionless), seeded from known signatures
    ([Leotp_util.Units] conversions, [Engine] times, [Link]/[Bandwidth]
    rates, [Rto] estimators, [Cc] windows, [Geo] distances, packet
    [Wire] slot accessors) and propagated over the call graph with a
    per-parameter fixpoint.  Parameters take their units from evidence
    inside their own bodies only — never from call sites — so generic
    helpers stay unit-polymorphic.

    Rules: [dim-mixed-arith] (adding/subtracting/comparing
    incompatible units), [dim-bad-product] (rate x rate, time x time),
    [dim-raw-conversion] (a magic constant re-deriving a [Units]
    helper, e.g. [*. 1000.] on seconds), [dim-seqno-arith] (ordinal
    sequence numbers meeting sizes) and [dim-annotation] (grammar
    violations).  Pins: [[@@leotp.dim "seconds dt, returns bytes"]] on
    bindings, [(e [@leotp.dim "seconds"])] on expressions.  Findings
    are reported for lib/ only (units.ml exempt) and respect
    [[@leotp.allow "rule-id"]]. *)

val mixed_id : string
val product_id : string
val conv_id : string
val seqno_id : string
val annot_id : string

val rules : (string * string) list
(** Each rule id above with its one-line rationale, for the registry. *)

val analyze : Callgraph.parsed list -> Finding.t list
(** Run the pass over parsed units, as {!Callgraph.load} and
    {!Callgraph.of_sources} yield them (sorted by path); findings are
    ordered by {!Finding.compare}, so output is byte-stable. *)

val analyze_sources : (string * string) list -> Finding.t list
(** Like {!analyze} for in-memory sources (tests); unparsable sources
    are skipped. *)
