(** Deterministic discrete-event simulation engine.

    Events at equal times fire in scheduling order (a monotonically
    increasing sequence number breaks ties), so runs are fully reproducible.
    Closure timers ({!schedule}) are cancellable; cancellation is O(1)
    (lazily discarded when popped).  Typed events ({!post}) pair a
    {!handler} built once with an int argument: scheduling and firing one
    allocates nothing, which is what the per-packet, per-hop link events
    use.  Both kinds share one sequence counter. *)

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

type handler
(** The code of a typed event, built once and posted many times. *)

val handler : t -> (int -> unit) -> handler
(** [handler t f] makes [f] postable on [t].  Build it at set-up (a link
    builds two at [create]); the engine keeps no registry of handlers. *)

val post : t -> after:float -> handler -> int -> unit
(** [post t ~after h arg] runs [h]'s function with [arg] at
    [now t +. after], with [after] clamped to be non-negative.  A typed
    event cannot be cancelled.  Raises [Invalid_argument] if [after] is
    NaN or positive infinity, or if [h] was built for another engine. *)

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
