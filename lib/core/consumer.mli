(** LEOTP Consumer: the end receiver that drives the transfer.

    Issues Interests for MSS-sized byte ranges, paced and windowed by the
    last hop's congestion controller (§III-C); provides end-to-end
    reliability through Timeout Retransmission (TR, §III-B) with RFC 6298
    RTO and 1.5x backoff; participates in SHR (it is a node too) so holes
    it observes are re-requested without waiting for the timeout; and on
    receiving a Void Packet Header resets the pending Interest's timer so
    TR does not race the in-network retransmission. *)

type t

val create :
  Leotp_sim.Engine.t ->
  config:Config.t ->
  node:Leotp_net.Node.t ->
  producer:int ->
  flow:int ->
  ?total_bytes:int ->
  ?metrics:Leotp_net.Flow_metrics.t ->
  ?on_complete:(unit -> unit) ->
  ?on_prefix:(pos:int -> len:int -> unit) ->
  unit ->
  t
(** [total_bytes]: fetch exactly that many bytes then finish; omit for an
    unbounded flow (runs until the experiment stops it). *)

val start : t -> unit
val handle_packet : t -> Leotp_net.Packet.t -> unit
(** Feed a Data packet or VPH addressed to this consumer. *)

val complete : t -> bool
val received_bytes : t -> int

val delivered_prefix : t -> int
(** Length of the contiguous in-order prefix delivered so far. *)

val interests_sent : t -> int
val interest_retx : t -> int
val stop : t -> unit
