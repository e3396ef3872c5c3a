(** End-to-end TCP session wiring: one sender node, one receiver node,
    shared flow metrics, node handlers installed. *)

type t = {
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Leotp_net.Flow_metrics.t;
}

val connect :
  Leotp_sim.Engine.t ->
  src_node:Leotp_net.Node.t ->
  dst_node:Leotp_net.Node.t ->
  flow:int ->
  cc:Cc.algo ->
  ?source:Sender.source ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Replaces both nodes' handlers.  Segments carry {!Wire.default_mss}
    bytes.  Call {!start} to begin transmission. *)

val start : t -> unit
val stop : t -> unit
