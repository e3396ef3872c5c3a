(** Protocol-invariant checker over a packet trace.

    Attach {!fold} to a {!Leotp_net.Trace} recorder with
    {!Leotp_net.Trace.add_fold}, or feed it built records with
    {!Leotp_net.Trace.fold_record}.  State folds incrementally (so ring
    eviction never loses accounting) into flat tables, so a warm event
    allocates nothing: link and PIT names are looked up without an
    option, each (node, flow) delivery stream sits under its flow, and
    the PIT replay keeps its own open-addressing table of births, apart
    from the [Range_table] the PIT runs on.  {!finalize} renders five
    named verdicts:

    - ["pit-lifetime"] — PIT bookkeeping is conservative (every satisfy /
      expire matches a registration, the advertised pending count matches
      an exact replay of the events), fresh satisfies are within the
      entry's lifetime, and no entry outlives its expiry at end of run.
    - ["cache-capacity"] — cache occupancy never exceeds the configured
      capacity at any traced point.
    - ["delivery-order"] — per (node, flow), application delivery is
      exactly-once and in-order (prefix positions are contiguous from 0),
      and any completion byte count matches the delivered total.
    - ["link-conservation"] — per link, offered + duplicated = delivered
      + dropped + still-queued + still-in-flight, with the event stream
      agreeing with the link's own final counters.
    - ["rto-floor"] — no TR / TCP retransmission timeout fired earlier
      than min (SRTT + 4*RTTVAR, armed timeout) (RFC 6298).

    Scenarios run self-checking when {!self_check} is set (see
    {!Common.observed}); violations raise {!Violation}. *)

type report = { invariant : string; ok : bool; detail : string }

type t

val create : unit -> t

val fold : t -> Leotp_net.Trace.fold
(** The checker's one fold (the same value on every call). *)

val finalize : now:float -> t -> report list
(** [now] is the end-of-run clock (for PIT end-of-run ages).  Time
    comparisons allow 1e-9 seconds of slack. *)

val all_ok : report list -> bool
val to_string : report list -> string

exception Violation of string

val self_check : bool Atomic.t
(** When set, every {!Common.observed} scenario attaches a checker and
    raises {!Violation} at the end of the run if any invariant fails.
    Atomic (it is read from worker domains); set it before the first
    job runs so every run of a sweep is checked alike. *)
