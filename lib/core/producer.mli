(** LEOTP Producer: the data source.

    Pure Responder: parses Interests, serves the requested byte ranges
    through a sending buffer paced at the advertised rate (paper Fig 9).
    The origin first-transmission time of each range is remembered so
    that retransmitted Data carries the original timestamp (the paper's
    OWD metric measures data-retrieval delay including recovery). *)

type t

val create :
  Leotp_sim.Engine.t ->
  config:Config.t ->
  node:Leotp_net.Node.t ->
  flow:int ->
  ?total_bytes:int ->
  ?available:(unit -> int) ->
  ?metrics:Leotp_net.Flow_metrics.t ->
  unit ->
  t
(** [total_bytes]: size of the flow's content (requests beyond it are
    clipped); omit for an unbounded source.  [available]: incremental
    source (the §VII TCP gateway) — only that many bytes exist yet;
    requests beyond the prefix are parked and served on
    {!notify_data_available}.  Installs no handler — the session wiring
    dispatches {!handle_interest}. *)

val notify_data_available : t -> unit
(** The incremental source grew: serve parked requests. *)

val stop : t -> unit
(** Flow retirement: cancel the buffer's drain timer, release queued Data
    back to the pool and forget parked requests.  Late Interests arriving
    afterwards are still answered if the session keeps dispatching them —
    callers normally unwire the handler at the same time. *)

val handle_interest : t -> Leotp_net.Packet.t -> unit
