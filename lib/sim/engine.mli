(** Deterministic discrete-event simulation engine.

    Events at equal times fire in scheduling order (a monotonically
    increasing sequence number breaks ties), so runs are fully reproducible.
    Timers are cancellable; cancellation is O(1) (lazily discarded when
    popped). *)

type t

type timer
(** Handle for a scheduled event. *)

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val schedule : t -> after:float -> (unit -> unit) -> timer
(** [schedule t ~after f] runs [f] at [now t +. after].  [after] is clamped
    to be non-negative.  Raises [Invalid_argument] if [after] is NaN or
    positive infinity. *)

val schedule_at : t -> time:float -> (unit -> unit) -> timer
(** Absolute-time variant; [time] in the past fires immediately (at [now]).
    Raises [Invalid_argument] naming [time] if it is NaN or infinite. *)

val cancel : timer -> unit
(** Idempotent.  A fired timer is also safe to cancel.  Cancellation is
    O(1); when cancelled timers come to dominate the queue (more than
    half, past a small floor) the queue is compacted so dead timers and
    their closures are not retained until their pop time. *)

val is_pending : timer -> bool

val run : ?until:float -> t -> unit
(** Process events in order until the queue drains or the clock would pass
    [until] (the clock is left at [until] in that case).  Raises
    [Invalid_argument] if [until] is NaN. *)

val events_processed : t -> int
(** Total events fired since [create] (monotonic; instrumentation). *)

val pending_events : t -> int

val cancelled_pending : t -> int
(** Cancelled timers still occupying the queue (awaiting lazy discard or
    compaction).  Exposed for tests and instrumentation. *)

val every : t -> period:float -> ?start:float -> (unit -> unit) -> timer
(** Recurring event; the returned handle cancels the whole recurrence.
    First firing at [now + start] (default: [now + period]).  Raises
    [Invalid_argument] on a NaN or infinite [period] and, like
    {!schedule}, on a NaN or positive-infinity [start]. *)
