(** Executable reference model of a reliable byte-stream sender.

    A deliberately naive go-back-N scoreboard (sorted segment list with
    explicit per-segment SACK and loss flags, O(n) scans everywhere).
    The model replays the real sender's transmit/loss transitions from
    {!Leotp_net.Trace.Seg_state} events and independently applies ACK
    semantics, giving ground truth for [snd_una] / [inflight] /
    [lost_pending] that the optimized {!Leotp_tcp.Sender} must match at
    every {!Leotp_net.Trace.Ack_processed} event. *)

type t

type claim = { snd_una : int; inflight : int; lost_pending : int }
(** The sender's own post-ACK view, as carried in an [Ack_processed]
    trace event. *)

val create : unit -> t

val on_sent : t -> seq:int -> len:int -> string list
(** A fresh transmission.  Returns divergences (e.g. the new segment
    overlaps an outstanding one). *)

val on_retx : t -> seq:int -> len:int -> string list
(** A retransmission of an outstanding segment: clears its loss mark and
    puts it back in flight. *)

val on_lost : t -> seq:int -> len:int -> string list
(** The sender declared an outstanding segment lost. *)

val on_ack : t -> cum_ack:int -> sacks:(int * int) list -> int
(** Apply cumulative + selective acknowledgement semantics.  Returns the
    bytes newly acknowledged (what a correct sender credits to its
    congestion controller). *)

val check : t -> claim -> string list
(** Compare the sender's claim against model ground truth; empty when
    they agree. *)

val snd_una : t -> int
val inflight : t -> int

val outstanding : t -> int
(** Number of segments the model still tracks. *)
