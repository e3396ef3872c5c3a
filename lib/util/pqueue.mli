(** Imperative binary min-heap.

    The comparison is fixed at creation.  Used by the discrete-event engine
    (keyed by time with a sequence tie-breaker for deterministic ordering)
    and by routing (keyed by distance). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val filter_in_place : 'a t -> keep:('a -> bool) -> unit
(** Drop every element for which [keep] is false, in O(n).  The backing
    store is reallocated to fit, so references to dropped elements are
    released immediately (used by the engine to compact lazily-cancelled
    timers). *)
