(** The Responder of one hop (paper Fig 9), for a Producer and a Midnode
    alike: a FIFO of outgoing Data packets drained by a token-bucket rate
    limiter at the rate the downstream Requester advertises (eqs 9-10).
    Each Data packet is stamped as it drains, with the drain time (Table
    I's "sent by the previous node") and the latest downstream Interest
    OWD the Requester's hopRTT needs (eqs 6-8), so time spent queued here
    stays out of the hop measurement (§III-C).

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
(** [send] actually transmits (normally [Node.send]); it gets every
    drained packet after the restamp. *)

val push : t -> Leotp_net.Packet.t -> bool
(** Enqueue; [false] if the buffer is full and the packet was dropped. *)

val on_interest : t -> now:float -> Leotp_net.Packet.t -> unit
(** A downstream Interest arrived at [now]: record its OWD,
    [max 0 (now - timestamp)], for the Data drained from here on, then
    drain at its advertised send rate (bytes/s).  Both are read from
    the Interest's slots, so nothing is boxed. *)

val req_owd : t -> float
(** The latest downstream Interest OWD (0 before the first Interest). *)

val write_rate : t -> Leotp_net.Packet.t -> unit
(** Write the drain rate (bytes/s) into an Interest's send-rate slot:
    eq (9)'s [rate_next_hop], which {!Hop_cc.advertise} reads there. *)

val len : t -> int
(** queued bytes *)

val drops : t -> int

val clear : t -> unit
(** Drop queued packets and cancel the drain timer (midnode crash). *)
