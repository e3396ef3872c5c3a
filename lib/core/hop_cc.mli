(** Requester-driven per-hop congestion control (paper §III-C, eqs 6-8).

    RTT-based, Vegas-like: per-packet hopRTT = Interest OWD + Data OWD;
    [hopRTT] is an EWMA of the samples and [hopRTT_min] the minimum over
    the recent 5 s.  Once per hopRTT the window is adjusted:

      BDP      = throughput * hopRTT_min                       (6)
      QueueLen = throughput * (hopRTT - hopRTT_min)            (7)
      cwnd     = 2*cwnd            in slow start               (8)
               | cwnd + MSS        if QueueLen <= M
               | k * BDP           otherwise

    Throughput is the delivery rate the Requester observes on this hop. *)

type t

val create : ?pipe_full_exit:bool -> config:Config.t -> now:float -> unit -> t
(** [pipe_full_exit] (default true) additionally leaves slow start when
    the window outruns 2x the measured delivery rate — needed on Midnode
    hops where Responder buffering is invisible to hopRTT; the Consumer's
    loop measurement sees that queueing directly and turns it off. *)

val on_data : t -> now:float -> interest_owd:float -> data_owd:float -> bytes:int -> unit
(** One received Data packet with its two one-way-delay components. *)

val on_delivered : t -> now:float -> bytes:int -> unit
(** Count delivered bytes without an RTT sample (retransmitted data,
    where the loop time is ambiguous). *)

val cwnd : t -> float
(** bytes *)

val rate : t -> now:float -> float
(** cwnd / hopRTT — the window expressed as a rate (input to eq 10). *)

val hop_rtt : t -> float option

val queue_len : t -> now:float -> float
(** eq (7) estimate, bytes *)

val in_slow_start : t -> bool
