(** Reliable byte-stream sender.

    Loss detection: SACK scoreboard with a FACK-style reordering threshold
    (a segment is declared lost once bytes >= 3*MSS beyond it have been
    selectively acknowledged), plus an RFC 6298 retransmission timeout as
    the last resort.  Congestion control is pluggable ({!Cc}); rate-based
    controllers are honoured through packet pacing. *)

type source =
  | Fixed of int  (** transfer exactly this many bytes, then finish *)
  | Unlimited  (** bulk flow with unbounded data *)
  | Dynamic of (unit -> int)
      (** available prefix length grows over time (Split TCP proxies) *)

type t

val create :
  Leotp_sim.Engine.t ->
  node:Leotp_net.Node.t ->
  dst:int ->
  flow:int ->
  cc:Cc.algo ->
  ?mss:int ->
  ?source:source ->
  ?metrics:Leotp_net.Flow_metrics.t ->
  ?on_complete:(unit -> unit) ->
  ?first_sent_of:(pos:int -> len:int -> float * bool) ->
  unit ->
  t
(** Installs the flow's ACK handling on [node] (via {!handle_ack}; the node
    handler must dispatch to it — {!Session} and {!Split} do the wiring).
    [first_sent_of ~pos ~len] supplies the origin timestamp and retx flag
    stamped into data segments; by default the segment's own first
    transmission time (proxies pass the origin flow's). *)

val start : t -> unit
val handle_ack : t -> Leotp_net.Packet.t -> unit

val notify_data_available : t -> unit
(** For [Dynamic] sources: new bytes are available, try to send. *)

val finished : t -> bool
val snd_una : t -> int
(** Lowest unacknowledged byte (= bytes reliably delivered downstream). *)

val snd_nxt : t -> int
(** Next new byte to be transmitted. *)

val inflight : t -> int

val lost_pending : t -> int
(** Segments declared lost and not yet retransmitted. *)

val srtt : t -> float option
(** Smoothed RTT estimate; [None] until the first valid sample. *)

val metrics : t -> Leotp_net.Flow_metrics.t
val cc_name : t -> string
val stop : t -> unit
(** Cancel timers (end of experiment). *)

val timers_idle : t -> bool
(** Both the RTO and pump timer slots are empty (not merely cancelled).
    Holds after {!stop} and after the flow finishes. *)

val timer_pending : t -> bool
(** Some timer is still armed in the engine ({!Leotp_sim.Engine.is_pending});
    must be [false] once the sender has finished or been stopped. *)
