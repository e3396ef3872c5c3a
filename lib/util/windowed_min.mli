(** Sliding-window minimum / maximum over timestamped samples.

    Used for [hopRTT_min] ("the minimal hopRTT in the recent 5 seconds",
    paper §III-C) and for BBR's windowed max-bandwidth / min-RTT filters.
    Amortized O(1) per sample (monotonic wedge). *)

type t

val create_min : window:float -> t
(** Tracks the minimum of samples whose timestamp is within [window] of the
    most recent query/insert time. *)

val create_max : window:float -> t

val set_window : t -> float -> unit
(** Adjust the window length (e.g. BBR's 10-round-trip bandwidth filter,
    whose span follows the measured RTT). *)

val add : t -> now:float -> float array -> int -> unit
(** [add t ~now src j] adds the sample [src.(j)]: read from a slot, it
    is not boxed, where a float passed to another module's function
    is. *)

val get_or : t -> now:float -> default:float -> float
(** The extremum over the window, or [default] when it is empty. *)

val get_into : t -> now:float -> float array -> int -> bool
(** [get_into t ~now dst i] copies the extremum into [dst.(i)] and
    returns [true], or returns [false] over an empty window, leaving
    [dst] alone.  It allocates nothing, where a float returned from
    another module (as {!get_or}'s is) is boxed. *)
