(** Constellation-scale flow-lifecycle manager (ROADMAP item 1).

    Runs a {!Workload} schedule — thousands of concurrent LEOTP/TCP
    flows — over {!Leotp_constellation.Path_service}-derived routes.
    The schedule is partitioned into a {e fixed} number of shards by
    origin city (flows only couple through their origin's shared
    uplink), each shard an independent engine/trace/invariant-checker
    job under {!Runner.map}: per-shard digests, and the combined digest,
    are bit-identical for [--jobs 1] vs [--jobs N].

    Per origin city the shard keeps a gateway + attachment-satellite
    pair running shared Midnodes (many-flow PIT and cache pressure)
    joined by the city's uplink; per flow it leases a pooled slot of
    endpoint nodes and links, reconfigured to the flow's current route.
    Completed flows retire after a grace period, returning their slot —
    and every pooled packet — to the free lists. *)

type spec = {
  workload : Workload.spec;
  shards : int;  (** fixed partition count — independent of [--jobs] *)
  config : Leotp.Config.t;
  tcp_cc : Leotp_tcp.Cc.algo;
  route_epoch : float;  (** Path_service memo quantum, seconds *)
  uplink_mbps : float;  (** shared per-origin-city GSL bandwidth *)
  access_mbps : float;  (** producer access link *)
  space_mbps : float;  (** per-flow folded ISL+down-GSL link *)
  gsl_plr : float;
  isl_plr : float;
  retire_grace : float;  (** completion -> slot reclaim delay, seconds *)
  drain : float;  (** extra sim time after the last arrival *)
}

val default : spec

type shard_stats = {
  shard : int;
  flows_offered : int;
  flows_started : int;
  flows_completed : int;
  flows_skipped : int;  (** no route at admission time *)
  bytes_delivered : int;
  packets : int;  (** packet records created in this shard *)
  events : int;  (** engine events fired *)
  flow_sim_seconds : float;  (** sum over flows of active sim time *)
  sim_end : float;
  route_queries : int;
  route_computes : int;  (** Dijkstra runs after memoization *)
  pool_live_delta : int;  (** 0 iff no pooled packet leaked *)
  pit_pending_end : int;  (** 0 iff retirement emptied the PITs *)
  peak_active : int;
  digest : string;  (** {!Leotp_net.Trace.digest} of this shard *)
  reports : Invariants.report list;
}

type stats = {
  flows_offered : int;
  flows_started : int;
  flows_completed : int;
  flows_skipped : int;
  bytes_delivered : int;
  packets : int;
  events : int;
  flow_sim_seconds : float;
  sim_seconds : float;
  route_queries : int;
  route_computes : int;
  pool_live_delta : int;
  pit_pending_end : int;
  peak_active : int;  (** summed over shards *)
  digest : string;
      (** {!Leotp_net.Trace.combine} of the shard digests, in shard order *)
  shards : shard_stats list;
  invariants_ok : bool;
}

val run : spec -> stats
(** Generate the workload, partition by origin, run every shard via
    {!Runner.map} (parallel per [Runner.set_jobs]) and aggregate.
    Raises {!Invariants.Violation} from a shard when
    [Invariants.self_check] is set and an invariant fails. *)
