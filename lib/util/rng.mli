(** Seedable random-number substreams.

    Every stochastic component of the simulator (per-link loss, bandwidth
    bias, workload arrival, ...) draws from its own named substream so that
    experiments are reproducible and components are statistically
    independent of each other regardless of call interleaving. *)

type t

val create : seed:int -> t
(** Root generator for a whole experiment. *)

val substream : t -> string -> t
(** [substream t name] derives an independent generator from [t]; the same
    [name] always yields the same stream for a given root seed. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]: it draws as
    [p > 0. && float t 1.0 < p] does, and allocates nothing. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [lo, hi). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed (Box-Muller). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
