(** Byte-stream receiver: reassembly, delivery accounting and ACK
    generation (cumulative + up to 3 SACK ranges, per-packet ACKs with a
    timestamp echo). *)

type t

val create :
  Leotp_sim.Engine.t ->
  node:Leotp_net.Node.t ->
  src:int ->
  flow:int ->
  ?metrics:Leotp_net.Flow_metrics.t ->
  ?expected_bytes:int ->
  ?on_deliver:(pos:int -> len:int -> first_sent:float -> retx:bool -> unit) ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** [src] is the sender's node id (where ACKs are routed).  [on_deliver]
    fires for each {i in-order} chunk as it becomes deliverable (Split TCP
    proxies forward from it). *)

val handle_data : t -> Leotp_net.Packet.t -> unit
val delivered_bytes : t -> int
(** Length of the delivered in-order prefix. *)

val complete : t -> bool
