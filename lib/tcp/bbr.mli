(** BBR (Cardwell et al.), simplified v1 model: windowed-max bandwidth /
    windowed-min RTT estimation with Startup / Drain / ProbeBW / ProbeRTT
    pacing-gain phases.  Loss-insensitive by design. *)

val create : mss:int -> now:float -> Cc.t
