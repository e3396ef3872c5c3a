(** Time-varying link bandwidth models (bytes/second).

    [Square] reproduces the paper's bottleneck fluctuation (§II-A, §V-B).
    Rates that follow a recorded timeline, such as the GSL handover "V"
    curve (§V-C), are [Constant]s that a replayed {!Path_trace} swaps in
    at each record ({!Dynamic_path.of_trace}). *)

type t =
  | Constant of float
  | Square of { mean : float; amplitude : float; period : float }
      (** [mean + amplitude] for the first half of each period, then
          [mean - amplitude]. *)

val constant_mbps : float -> t
val square_mbps : mean:float -> amplitude:float -> period:float -> t

val approx_equal : epsilon:float -> t -> t -> bool
(** Same model shape with every rate within [epsilon] bytes/second (the
    square wave's period must match exactly).  Different constructors
    never compare equal. *)

val at : t -> float -> float
(** Instantaneous rate at an absolute time, bytes/second. *)
