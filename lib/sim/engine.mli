(** Deterministic discrete-event simulation engine.

    Events at equal times fire in scheduling order (a monotonically
    increasing sequence number breaks ties), so runs are fully
    reproducible.  There is one kind of event, built once and queued
    many times, in two roles:

    - a {!timer} runs a [unit -> unit] action.  It is queued at most
      once: {!arm} re-arms it in place (a queued timer's old slot dies),
      {!cancel} disarms it in O(1) (the dead slot is discarded lazily).
      A protocol holds one timer per purpose (RTO, pacing, scan) for its
      lifetime; {!schedule} is the one-shot shorthand.
    - a {!handler} is posted ({!post}) with an int argument and may be
      queued any number of times at once; it cannot be cancelled.  The
      per-packet, per-hop link events use it.

    Once the heap has grown, posting an event and firing it allocate
    nothing: {!post} reads its delay from a slot the engine owns, where
    a float argument to another module's function would be boxed.
    Arming a timer allocates only the box of an [after]/[time] argument
    the caller computes.  Firing an event that advances time boxes the
    new clock value.  Every arm, schedule and post consumes one
    sequence number; building and cancelling consume none. *)

type t

type timer
(** An action that is queued at most once at a time. *)

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val timer : t -> (unit -> unit) -> timer
(** [timer t f] builds a disarmed timer that runs [f] on [t] each time
    it fires.  Build it at set-up and re-arm it: the engine keeps no
    registry of timers. *)

val arm : timer -> after:float -> unit
(** [arm tm ~after] queues [tm] to fire at [now +. after], with [after]
    clamped to be non-negative; if [tm] is already queued, its earlier
    slot is cancelled first.  A firing timer is disarmed before its
    action runs, so the action may re-arm it.  Raises
    [Invalid_argument] if [after] is NaN or positive infinity. *)

val arm_at : timer -> time:float -> unit
(** Absolute-time variant of {!arm}; [time] in the past fires
    immediately (at [now]).  Raises [Invalid_argument] naming [time] if
    it is NaN or infinite. *)

val schedule : t -> after:float -> (unit -> unit) -> timer
(** One-shot: [schedule t ~after f] is a {!timer} for [f] armed
    [~after]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> timer
(** One-shot: a {!timer} armed with {!arm_at}. *)

val cancel : timer -> unit
(** Disarms; idempotent, and safe on a fired or never-armed timer.
    When dead slots come to dominate the queue (more than half, past a
    small floor) the queue is compacted so cancelled one-shots and their
    closures are not retained until their pop time. *)

val is_pending : timer -> bool
(** Armed and not yet fired or cancelled. *)

type handler
(** The code of a typed event, built once and posted many times. *)

val handler : t -> (int -> unit) -> handler
(** [handler t f] makes [f] postable on [t].  Build it at set-up (a link
    builds two at [create]). *)

val post_delay : t -> float array
(** The one-slot array {!post} reads its delay from, in seconds.  A
    poster writes [(post_delay t).(0)] and then posts; the slot keeps
    its value until the next write. *)

val post : t -> handler -> int -> unit
(** [post t h arg] runs [h]'s function with [arg] at [now t +. after],
    where [after] is [(post_delay t).(0)] clamped to be non-negative.
    Raises [Invalid_argument] if [after] is NaN or positive infinity, or
    if [h] was built for another engine. *)

val run : ?until:float -> t -> unit
(** Process events in order until the queue drains or the clock would pass
    [until] (the clock is left at [until] in that case).  Raises
    [Invalid_argument] if [until] is NaN. *)

val events_processed : t -> int
(** Total events fired since [create] (monotonic; instrumentation). *)

val pending_events : t -> int

val cancelled_pending : t -> int
(** Dead slots (a cancelled timer, or one re-armed since) still
    occupying the queue, awaiting lazy discard or compaction.  Exposed
    for tests and instrumentation. *)
