(** Unidirectional link: droptail queue -> serialization -> propagation ->
    random loss -> delivery.

    Loss is drawn after serialization so that lost packets still consume
    the link's bandwidth, matching the paper's observation that end-to-end
    retransmissions waste bottleneck capacity.  [flush] models link
    switching: all queued and in-flight packets are discarded (§II-C
    "packet loss may occur ... when an intermediate node removes from the
    path"). *)

type t

type stats = {
  mutable packets_in : int;  (** offered to the link *)
  mutable packets_delivered : int;
  mutable bytes_delivered : int;
  mutable drops_tail : int;  (** queue overflow (congestion loss) *)
  mutable drops_error : int;  (** random corruption (PLR) *)
  mutable drops_flush : int;  (** link switching *)
  mutable drops_down : int;  (** offered while the link was down *)
  mutable dups : int;  (** fault-injected duplicate deliveries *)
}

val create :
  Leotp_sim.Engine.t ->
  name:string ->
  src:int ->
  dst:int ->
  bandwidth:Bandwidth.t ->
  delay:float ->
  ?plr:float ->
  ?buffer_bytes:int ->
  rng:Leotp_util.Rng.t ->
  unit ->
  t
(** [src]/[dst] are the node ids of the link endpoints; [delay] is the
    one-way propagation delay in seconds.  Default [plr] 0, default buffer
    256 KB. *)

val set_sink : t -> (Packet.t -> unit) -> unit
(** Delivery callback (wired by {!Topology}). *)

val send : t -> Packet.t -> unit
(** Offer a packet; drops silently when the buffer is full. *)

val flush : t -> unit

val src : t -> int
val dst : t -> int
val name : t -> string
val delay : t -> float
val set_delay : t -> float -> unit
val plr : t -> float
val set_plr : t -> float -> unit
val bandwidth : t -> Bandwidth.t
val set_bandwidth : t -> Bandwidth.t -> unit
val current_rate : t -> float
(** Bytes/second at the present simulation time. *)

val set_buffer_bytes : t -> int -> unit
val queue_bytes : t -> int
(** Current backlog (queued, excluding the packet being serialized). *)

val queued_packets : t -> int
val in_flight : t -> int
(** Packets taken off the queue whose delivery or drop has not resolved
    yet (serializing or propagating). *)

val up : t -> bool
val set_up : t -> bool -> unit
(** Taking a link down flushes queued and in-flight packets and drops
    everything offered until it comes back up ([drops_down]). *)

val set_dup_prob : t -> float -> unit
(** Fault injection: deliver an extra copy of each arriving packet with
    this probability (default 0; costs no RNG draws at 0). *)

val set_reorder : t -> prob:float -> jitter:float -> unit
(** Fault injection: with probability [prob], add a uniform extra delay
    in [0, jitter) seconds to a packet's propagation so later packets
    can overtake it (default 0/0). *)

val stats : t -> stats

val trace_final : t -> unit
(** Emit a {!Trace.Link_final} accounting record for this link (no-op
    when tracing is off). *)
