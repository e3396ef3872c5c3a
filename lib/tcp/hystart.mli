(** Delay-based slow-start exit (HyStart, Ha & Rhee 2011): leave slow
    start as soon as the RTT inflates past the propagation floor by
    max(4 ms, floor/8), instead of one full RTT after the queue starts
    building. *)

type t

val create : unit -> t

val on_ack : t -> Cc.window -> rtt_sample:float option -> unit
(** Feed an ACK's RTT sample while the window is in slow start
    ([cwnd < ssthresh]); once the RTT is inflated, set [ssthresh] to
    [cwnd], which ends slow start.  Outside slow start the sample is not
    read, so the floor is the minimum over slow-start samples only. *)
