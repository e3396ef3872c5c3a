(** TCP NewReno: slow start + AIMD congestion avoidance with fast-recovery
    halving.  The reference loss-based baseline. *)

val create : mss:int -> now:float -> Cc.t
