(** Requester-driven per-hop congestion control (paper §III-C, eqs 6-8)
    and the rate the Requester advertises upstream (eqs 9-10).

    RTT-based, Vegas-like: per-packet hopRTT = Interest OWD + Data OWD;
    [hopRTT] is an EWMA of the samples and [hopRTT_min] the minimum over
    the recent 5 s.  Once per hopRTT the window is adjusted:

      BDP      = throughput * hopRTT_min                       (6)
      QueueLen = throughput * (hopRTT - hopRTT_min)            (7)
      cwnd     = 2*cwnd            in slow start               (8)
               | cwnd + MSS        if QueueLen <= M
               | k * BDP           otherwise

    Throughput is the delivery rate the Requester observes on this hop.
    A Midnode advertises

      rate_bp = rate_next_hop + (BL_tar - BL) / hopRTT          (9)
      rate    = min (cwnd / hopRTT, rate_bp)                    (10)

    computed here, where cwnd and the hop RTTs live. *)

type t

(** The controller's floats.  All fields are floats, so the record is
    stored flat and a read or write boxes nothing; outside this module
    it is read-only. *)
type window = private {
  mutable cwnd : float;  (** bytes *)
  mutable srtt : float;
      (** smoothed hopRTT (EWMA, weight 1/8), seconds; NaN before the
          first sample *)
  mutable thr_ewma : float;  (** smoothed delivery rate, bytes/s *)
  mutable last_adjust : float;
  mutable next_adjust : float;  (** the next eq (8) adjustment, seconds *)
}

val window : t -> window

val create : ?pipe_full_exit:bool -> config:Config.t -> now:float -> unit -> t
(** [pipe_full_exit] (default true) additionally leaves slow start when
    the window outruns 2x the measured delivery rate — needed on Midnode
    hops where Responder buffering is invisible to hopRTT; the Consumer's
    loop measurement sees that queueing directly and turns it off. *)

val on_data : t -> now:float -> Leotp_net.Packet.t -> unit
(** One Data packet received at [now]: a hopRTT sample of its two
    one-way-delay components, the Interest OWD it carries and
    [now - timestamp] (each clamped at 0), for its length in bytes.  The
    packet's slots are read here, so no float is boxed. *)

val on_loop : t -> now:float -> sent:float -> bytes:int -> unit
(** A Consumer's pull-loop sample: [bytes] requested at [sent] arrived
    at [now]. *)

val on_delivered : t -> now:float -> bytes:int -> unit
(** Count delivered bytes without an RTT sample (retransmitted data,
    where the loop time is ambiguous). *)

val rate_into : t -> now:float -> float array -> int -> unit
(** [rate_into t ~now dst i] writes cwnd / hopRTT, the window expressed
    as a rate (input to eq 10), into [dst.(i)]; it is the Consumer's
    whole advertised rate, since it has no sending buffer.  Returned, it
    would be boxed. *)

val rate_bp :
  config:Config.t ->
  buffer_len:int ->
  next_hop_rate:float ->
  hop_rtt:float ->
  float
(** Eq (9), inter-hop rate coordination (paper §III-C): the inflow that
    brings the sending buffer back to its target length within one
    hopRTT on top of the current outflow, [next_hop_rate + (BL_tar - BL)
    / hopRTT], clamped at 0.  (The paper prints eq (9) with [BL -
    BLtar]; with that sign a growing backlog would {i raise} the
    requested inflow, the opposite of backpressure — we use the draining
    form, which also matches the paper's prose "if the downstream
    sending rate is lower than the upstream, the upstream will decrease
    its sending rate".) *)

val advertise : t -> now:float -> buffer_len:int -> Leotp_net.Packet.t -> unit
(** Eq (10), [min (rate, rate_bp)] with the smoothed hopRTT (10 ms
    before the first sample), written into the send-rate field of the
    Interest a Midnode sends upstream.  That field holds the next hop's
    rate on entry ({!Send_buffer.write_rate}); [buffer_len] is the
    sending buffer's.  Allocates nothing. *)

val queue_len : t -> now:float -> float
(** eq (7) estimate, bytes *)

val in_slow_start : t -> bool
