(** Pending Interest Table — the multicast support sketched in paper §VII.

    "When several Consumers request the same data at the same time, the
    cache in Midnodes could block the duplicate Interests and respond data
    immediately ... if the Consumers share the same FlowID."

    A Midnode records which consumers wait for an uncached range; a second
    Interest for the same range is blocked (not forwarded upstream), and
    when the Data passes through, every waiting consumer other than the
    packet's own destination gets a copy from the cache path.  Entries
    expire so a lost response does not pin state forever (the consumers'
    TR re-requests will re-create them).

    Entries live in a {!Leotp_util.Range_table} keyed by [(flow, lo,
    hi)], so a warm registration and its satisfaction allocate nothing;
    only a second consumer joining a pending range takes a list cell. *)

type t

val create : ?label:string -> expiry:float -> unit -> t
(** [expiry] in seconds (a few path RTTs); [label] names this table in
    trace events (normally the owning node's name). *)

val register : t -> now:float -> flow:int -> lo:int -> hi:int -> consumer:int -> bool
(** Record that [consumer] waits for the range.  Returns [true] when this
    is a fresh entry (forward the Interest upstream) and [false] when the
    range was already pending (block the duplicate). *)

val satisfy : t -> now:float -> flow:int -> lo:int -> hi:int -> int
(** Data for the range arrived: drop the entry and return how many
    consumers wait on it (0 for an expired or absent entry); {!waiter}
    reads them back. *)

val waiter : t -> int -> int
(** [waiter t i], for [0 <= i <] the last {!satisfy}'s count, is its
    [i]-th waiting consumer, newest first (the first registrant last).
    Valid until the next [satisfy]. *)

val pending : t -> int

val expire_before : t -> now:float -> unit
(** Drop entries older than [expiry].  Also runs as an amortized sweep
    every few registrations, so the table stays bounded without a
    recurring engine timer. *)

val clear : t -> unit
(** Drop every entry (midnode crash); each removal is traced. *)

val drop_flow : t -> flow:int -> unit
(** Drop every entry of one flow (flow retirement); each removal is traced
    as an expiry so trace replay stays balanced. *)
