(** Descriptive statistics over float samples.

    [t] is an append-only sample collector; summary functions sort lazily
    and cache the sorted view.  Also provides Jain's fairness index and
    empirical CDF extraction for the paper's CDF figures. *)

type t

val create : unit -> t
val add : t -> float array -> int -> unit
(** [add t src i] appends the sample [src.(i)]: read from a slot, it is
    not boxed, where a float passed to another module's function is. *)

val count : t -> int
val is_empty : t -> bool
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]; linear interpolation.  The
    first summary after an [add] sorts one copy of the samples. *)

val median : t -> float

val cdf_points : ?points:int -> t -> (float * float) list
(** [(value, cumulative_fraction)] pairs suitable for plotting a CDF. *)

val excess : t -> floor:float -> t
(** [excess t ~floor] collects [max 0 (x -. floor)] for every sample [x]
    of [t], in order (queuing delay from OWD samples). *)

val sort_floats : float array -> unit
(** [Array.sort Float.compare], the same heap sort step for step (equal
    keys such as [0.0] and [-0.0] end up where it puts them), without
    boxing an element: it allocates one slot per call. *)

val jain_index : float list -> float
(** Jain's fairness index of a throughput allocation; 1 = perfectly fair.
    Returns [nan] on the empty list. *)
