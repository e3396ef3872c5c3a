(** CUBIC (RFC 8312): cubic window growth in congestion avoidance with a
    TCP-friendly (Reno-tracking) floor, beta = 0.7, C = 0.4, plus
    HyStart slow-start exit. *)

val create : mss:int -> now:float -> Cc.t
