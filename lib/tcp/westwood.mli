(** TCP Westwood+ (Mascolo et al. 2001): Reno-style growth, but on loss
    the window is set from a bandwidth estimate times the minimum RTT
    instead of blind halving. *)

val create : mss:int -> now:float -> Cc.t
