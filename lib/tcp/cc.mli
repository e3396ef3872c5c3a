(** Pluggable congestion control for the TCP engine.

    A controller is a record of callbacks driven by the sender's ACK
    processing, plus the {!window} it writes and the sender reads.
    Window-based algorithms keep [cwnd] and [ssthresh] there and leave
    [pacing_rate] at [0.0]; rate-based algorithms (BBR, PCC) write a
    positive [pacing_rate] and use [cwnd] only as an inflight cap.  Each
    algorithm module ({!Bbr}, {!Cubic}, ...) builds one record with its
    own [create]; {!Sender.create} picks it by {!algo}. *)

type ack_info = {
  now : float;
  acked_bytes : int;  (** bytes newly acknowledged (cumulative or SACK) *)
  rtt_sample : float option;  (** seconds, from the timestamp echo *)
  bw_sample : float option;  (** delivery-rate sample, bytes/second *)
  inflight : int;  (** bytes in flight after processing this ack *)
}

(** The controller's output, read by the sender's window and pacing
    gates.  All fields are floats, so the record is stored flat and a
    read or write boxes nothing. *)
type window = {
  mss : float;  (** bytes *)
  mutable cwnd : float;  (** bytes *)
  mutable ssthresh : float;  (** bytes; infinite until the first exit *)
  mutable pacing_rate : float;  (** bytes/second; [0.0] = not paced *)
}

type t = {
  name : string;
  window : window;
  on_ack : ack_info -> unit;
  on_loss : now:float -> inflight:int -> unit;
      (** One call per loss {i episode} (at most once per RTT). *)
  on_rto : now:float -> unit;
  phase : unit -> string;
      (** Current controller phase, for the semantic trace oracle
          (Leotp_check): loss-based algorithms report ["ss"]/["ca"], BBR
          its gain-cycle state (["startup"], ["drain"], ["probe_bw:<i>"],
          ["probe_rtt"]), PCC its probe direction. *)
}

type algo =
  | Newreno
  | Cubic
  | Hybla
  | Westwood
  | Vegas
  | Bbr
  | Pcc

val all : algo list
val algo_name : algo -> string

val algo_of_name : string -> algo option
(** The [algo] in {!all} whose {!algo_name} is the argument. *)

val initial_window : int -> float
(** 10 segments, in bytes (RFC 6928). *)

val min_window : int -> float
(** 2 segments, in bytes. *)

(** {2 Shared window steps} *)

val window : mss:int -> window
(** A fresh window: {!initial_window}, infinite [ssthresh], unpaced. *)

val halve : window -> unit
(** [ssthresh] <- max (cwnd / 2, 2 MSS). *)

val collapse : window -> unit
(** The RTO response: {!halve}, then a 1-MSS window. *)

val ss_or_ca : window -> string
(** ["ss"] while [cwnd < ssthresh], else ["ca"]. *)
