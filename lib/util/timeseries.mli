(** Append-only timestamped series with windowed aggregation.

    Backs throughput-over-time plots (Fig 15's fairness/convergence traces)
    and rate sampling in scenarios. *)

type t

val create : unit -> t
val add : t -> time:float -> float array -> int -> unit
(** [add t ~time src i] records the value [src.(i)] at [time]; the
    value is read from a slot so it is not boxed. *)

val length : t -> int

val window_sum : t -> lo:float -> hi:float -> float
(** Sum of values with [lo <= time < hi]. *)

val bucketize : t -> width:float -> t_end:float -> (float * float) list
(** [(bucket_start, sum_of_values)] for consecutive buckets of [width]
    seconds from time 0 to [t_end]. *)

val rate_series : t -> width:float -> t_end:float -> (float * float) list
(** Like {!bucketize} but each bucket's sum is divided by [width]
    (e.g. bytes recorded per event -> bytes/second per bucket). *)
