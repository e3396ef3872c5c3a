(** PCC Vivace (Dong et al., NSDI'18), simplified online-learning model:
    per-monitor-interval utility U = thr^0.9 - b*thr*max(0, dRTT/dt) -
    c*thr*loss, with paired probe MIs deciding gradient-style rate
    steps. *)

val create : mss:int -> now:float -> Cc.t
