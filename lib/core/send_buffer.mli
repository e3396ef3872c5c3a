(** Responder-side sending buffer: a FIFO of outgoing Data packets drained
    by a token-bucket rate limiter at the rate advertised by the
    downstream Requester (paper Fig 9).

    The buffer length [len] is the BL input of the backpressure equation;
    the drain rate doubles as the "next-hop sending rate" the node
    reports upstream. *)

type t

val create :
  Leotp_sim.Engine.t ->
  config:Config.t ->
  send:(Leotp_net.Packet.t -> unit) ->
  unit ->
  t
(** [send] actually transmits (normally [Node.send]). *)

val push : t -> Leotp_net.Packet.t -> bool
(** Enqueue; [false] if the buffer is full and the packet was dropped. *)

val set_rate : t -> float -> unit
(** Update the drain rate (bytes/s) from a received Interest's sendRate. *)

val rate : t -> float
val len : t -> int
(** queued bytes *)

val drops : t -> int

val clear : t -> unit
(** Drop queued packets and cancel the drain timer (midnode crash). *)
