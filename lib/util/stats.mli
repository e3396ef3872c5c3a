(** Descriptive statistics over float samples.

    [t] is an append-only sample collector; summary functions sort lazily
    and cache the sorted view.  Also provides exponentially weighted
    moving averages, Jain's fairness index, and empirical CDF extraction
    for the paper's CDF figures. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool
val mean : t -> float
val stddev : t -> float
val min : t -> float
val max : t -> float
val total : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [0, 100]; linear interpolation. *)

val median : t -> float

val cdf_points : ?points:int -> t -> (float * float) list
(** [(value, cumulative_fraction)] pairs suitable for plotting a CDF. *)

val to_list : t -> float list

val jain_index : float list -> float
(** Jain's fairness index of a throughput allocation; 1 = perfectly fair.
    Returns [nan] on the empty list. *)

(** Exponentially weighted moving average. *)
module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] is the weight of each new sample, in (0, 1]. *)

  val add : t -> float -> unit
  val value : t -> float
  (** Current average; [nan] before the first sample. *)

  val value_or : t -> default:float -> float
end
