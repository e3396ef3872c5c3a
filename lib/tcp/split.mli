(** Split TCP: independent TCP connections per hop through store-and-
    forward proxies (the PEP baseline of paper §II-C and Fig 4).

    Each proxy terminates the upstream connection, buffers the in-order
    byte stream, and re-originates it on a downstream connection running
    its own congestion controller.  Origin first-transmission timestamps
    are carried through so the end receiver's OWD includes proxy queuing
    delay — the backlog effect the paper demonstrates. *)

type t

val connect :
  Leotp_sim.Engine.t ->
  nodes:Leotp_net.Node.t array ->
  flow:int ->
  cc:Cc.algo ->
  ?source:Sender.source ->
  unit ->
  t
(** [nodes.(0)] is the origin sender, the last node the end receiver, and
    every interior node a proxy.  Handlers are installed on all of them.
    Every hop's connection uses {!Wire.default_mss}. *)

val start : t -> unit

val metrics : t -> Leotp_net.Flow_metrics.t
(** End-to-end metrics: origin wire bytes, end-receiver delivery/OWD. *)

val complete : t -> bool
