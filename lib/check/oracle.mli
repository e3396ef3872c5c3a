(** Differential & model-based protocol oracle.

    Attached as a live sink on a {!Leotp_net.Trace} recorder, the oracle
    replays every TCP sender's segment lifecycle ({!Leotp_net.Trace.Seg_state})
    into the reference {!Model} and, at each
    {!Leotp_net.Trace.Ack_processed} event, checks that

    - the sender's claimed [snd_una] / [inflight] / [lost_pending] match
      model ground truth (differential check);
    - the armed retransmission timeout never drops below the RFC 6298
      floor SRTT + max(G, 4*RTTVAR), replayed on the same samples;
    - the congestion controller respects its algorithm's semantics:
      positive finite window always; AIMD growth bounded by acked bytes
      (NewReno, Westwood); at most one window adjustment per RTT (Vegas);
      gain-cycle phase legality and the 4*MSS ProbeRTT window (BBR);
      monitor-interval phase legality (PCC).

    Divergences are accumulated, never raised, so a fuzz run can finish
    the simulation and report every failure. *)

type t

type divergence = { time : float; who : string; flow : int; what : string }

val create : mss:int -> unit -> t
(** [mss] must match the senders under test.  Float comparisons allow
    1e-6 of slack. *)

val attach : t -> Leotp_net.Trace.t -> unit
(** [attach t trace] feeds every record of [trace] to the oracle. *)

val divergences : t -> divergence list
(** All divergences so far, oldest first. *)

val acks : t -> int
(** ACK events checked. *)

val seg_events : t -> int
(** Segment-lifecycle events replayed. *)

val connections : t -> int
(** Distinct (sender, flow) connections observed. *)

val divergence_to_string : divergence -> string

val sender_quiescent : Leotp_tcp.Sender.t -> string option
(** Engine-level timer assertion for a finished or stopped sender:
    [None] when neither of its timers remains armed in the engine
    ({!Leotp_sim.Engine.is_pending}); otherwise a description of the
    leak. *)
