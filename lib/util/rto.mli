(** RFC 6298 retransmission-timeout estimator.

    Shared by the TCP engine and LEOTP's Consumer-driven Timeout
    Retransmission (paper §III-B): SRTT/RTTVAR smoothing, the classic
    [srtt + 4 * rttvar] timeout, and exponential backoff.  LEOTP backs off
    by a factor of 1.5 per timeout (paper) while TCP doubles; the factor is
    a parameter. *)

type t

val create :
  ?min_rto:float -> ?max_rto:float -> ?backoff_factor:float -> unit -> t
(** The timeout is 1 s until the first RTT sample (RFC 6298).  Defaults:
    min 0.2 s, max 60 s, backoff factor 2.0. *)

val observe : t -> now:float -> sent:float -> unit
(** Feed the RTT sample [now -. sent] (seconds); resets any backoff.
    Allocates nothing. *)

val rto : t -> float
(** Current timeout including backoff. *)

val base_rto : t -> float
(** Timeout without backoff. *)

val backoff : t -> unit
(** Multiply the timeout by the backoff factor (capped at [max_rto]). *)

val reset_backoff : t -> unit
val srtt : t -> float option

val timeout_floor : t -> timeout:float -> float
(** The RFC 6298 floor a timeout armed now must not fire before:
    [min (SRTT + 4 * RTTVAR, timeout)], where [timeout] is the one
    actually armed (the estimator's bounds may pull it below the raw
    formula); 0 before the first RTT sample. *)

val stamp : t -> now:float -> Seg_store.times -> unit
(** [stamp t ~now times] sets [times.due] to [now +. rto t] and
    [times.floor] to that timeout's {!timeout_floor}: the deadline of a
    range requested at [now].  Allocates nothing, where {!rto} and
    {!timeout_floor} return boxed floats. *)
