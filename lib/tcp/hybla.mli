(** TCP Hybla (Caini & Firrincieli 2004): window growth scaled by
    rho = RTT/RTT0 so long-RTT (satellite) flows grow as fast as a
    reference terrestrial flow with RTT0 = 25 ms. *)

val create : mss:int -> now:float -> Cc.t
