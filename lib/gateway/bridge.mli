(** TCP <-> LEOTP gateway (paper §VII, "Compatible with TCP").

    "An alternative solution is to use LEOTP only in the satellite
    segment.  Transparent proxies are deployed at ground stations to
    connect the territorial network and LEOTP."

    Topology:

      TCP sender --(terrestrial)--> ingress GW ==(LEOTP over satellites)==>
        egress GW --(terrestrial)--> TCP receiver

    The ingress gateway terminates the TCP connection and re-publishes the
    byte stream as a LEOTP Producer whose available prefix grows as TCP
    data arrives; the egress gateway is the LEOTP Consumer and re-sends
    the stream on a fresh TCP connection.  The transfer size is part of
    the bridge setup (a deployment would carry it in the proxy handshake;
    the paper flags exactly this sender-driven/receiver-driven mismatch
    as the hard part). *)

type t

val create :
  Leotp_sim.Engine.t ->
  config:Leotp.Config.t ->
  tcp_cc:Leotp_tcp.Cc.algo ->
  sender_node:Leotp_net.Node.t ->
  ingress_node:Leotp_net.Node.t ->
  egress_node:Leotp_net.Node.t ->
  receiver_node:Leotp_net.Node.t ->
  flow:int ->
  bytes:int ->
  unit ->
  t
(** Installs handlers on all four nodes.  The satellite segment (between
    [ingress_node] and [egress_node]) may contain LEOTP Midnodes created
    separately. *)

val start : t -> unit
val complete : t -> bool

val leotp_metrics : t -> Leotp_net.Flow_metrics.t
(** Satellite segment. *)

val tcp_out_metrics : t -> Leotp_net.Flow_metrics.t
(** Terrestrial leg to the final receiver (end-to-end delivery). *)

val ingress_backlog : t -> int
(** Bytes received from TCP but not yet pulled over the satellite leg. *)

val egress_backlog : t -> int
(** Bytes received over LEOTP but not yet acknowledged by the final TCP
    receiver. *)
