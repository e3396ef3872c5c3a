(** TCP Vegas (Brakmo & Peterson 1995): RTT-based congestion avoidance
    keeping between alpha and beta segments queued in the network,
    adjusted once per RTT. *)

val create : mss:int -> now:float -> Cc.t
