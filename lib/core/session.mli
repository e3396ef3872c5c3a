(** Assemble a LEOTP transfer over a topology.

    [over_chain] places the Consumer at one end, the Producer at the
    other, and Midnodes on interior nodes according to [coverage] and the
    ablation configuration — the way the paper deploys LEOTP over a path
    of ground stations and satellites.  [attach] wires a single flow onto
    nodes the caller picked (dumbbell experiments). *)

type t = {
  consumer : Consumer.t;
  producer : Producer.t;
  midnodes : Midnode.t list;
  metrics : Leotp_net.Flow_metrics.t;
}

val attach :
  Leotp_sim.Engine.t ->
  config:Config.t ->
  consumer_node:Leotp_net.Node.t ->
  producer_node:Leotp_net.Node.t ->
  midnodes:Midnode.t list ->
  flow:int ->
  ?total_bytes:int ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Installs endpoint handlers; the given midnodes are shared
    infrastructure (already installed on their nodes) and are only listed
    for stats access. *)

val over_chain :
  Leotp_sim.Engine.t ->
  config:Config.t ->
  chain:Leotp_net.Topology.chain ->
  flow:int ->
  ?total_bytes:int ->
  ?coverage:float ->
  ?coverage_rng:Leotp_util.Rng.t ->
  unit ->
  t
(** Consumer at [chain.nodes.(0)], Producer at the far end.  [coverage]
    (default 1.0) is the fraction of interior nodes running a Midnode
    (paper §V-C, 25% deployment); the rest stay plain forwarders.  With
    ablation [No_midnodes] no Midnode is created regardless. *)

val start : t -> unit
val stop : t -> unit
