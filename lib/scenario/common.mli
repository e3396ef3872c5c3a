(** Shared experiment plumbing: build a path, run one protocol over it,
    return a uniform summary.  {!run_flow} is the one single-flow body:
    the static chains ({!run_chain}), the emulated Starlink paths, the
    trace replays and the path-switching figure each build their chain
    and hand it to it.  {!run_flows_dumbbell} runs the multi-flow
    fairness topology. *)

type protocol =
  | Tcp of Leotp_tcp.Cc.algo
  | Split_tcp of Leotp_tcp.Cc.algo
  | Leotp of Leotp.Config.t
  | Leotp_partial of Leotp.Config.t * float  (** coverage fraction *)

val protocol_name : protocol -> string

val protocol_of_name : string -> protocol option
(** Inverse of {!protocol_name} (case-insensitive) for LEOTP, its three
    ablations, and plain and Split TCP; the ablations also parse as
    [leotp-b]/[leotp-no-cache], [leotp-c]/[leotp-e2e-cc] and
    [leotp-d]/[leotp-e2e].  Partial-coverage names do not parse. *)

type link_params = {
  bandwidth_mbps : float;
  delay : float;  (** one-way propagation per hop, seconds *)
  plr : float;
}
(** Every hop built from these gets {!Leotp_net.Topology.hop}'s 256 KB
    drop-tail buffer. *)

val link : ?plr:float -> bw:float -> delay:float -> unit -> link_params

type summary = {
  protocol : string;
  goodput_mbps : float;  (** application goodput over the measure window *)
  owd : Leotp_util.Stats.t;  (** data-retrieval OWD, seconds *)
  retx_owd : Leotp_util.Stats.t;
  queuing_delay : Leotp_util.Stats.t;  (** OWD minus propagation floor *)
  retransmissions : int;
  wire_bytes : int;  (** bytes the origin sender put on the wire *)
  app_bytes : int;
  completion_time : float option;
  delivery : Leotp_util.Timeseries.t;
  duration : float;
  congestion_drops : int;  (** droptail losses across the path's links *)
}

val observed :
  engine:Leotp_sim.Engine.t ->
  links:Leotp_net.Link.t list ->
  ?trace:Leotp_net.Trace.t ->
  ?on_reports:(Invariants.report list -> unit) ->
  ?sweep:(now:float -> unit) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** Run [f] under a packet-trace recorder.  A recorder is installed when
    the caller passes [trace], asks for invariant [on_reports], or
    {!Invariants.self_check} is set (then a one-slot sink-only ring is
    used); otherwise [f] just runs.  After [f]: [sweep ~now] (e.g. PIT
    end-of-run expiry), {!Leotp_net.Link.trace_final} on every link,
    invariant finalization.  [sweep] may also finalize links created
    during [f], which the caller cannot pass as [links] up front.  In
    self-check mode a failed invariant raises {!Invariants.Violation}
    tagged with [label]. *)

val fresh_engine : seed:int -> Leotp_sim.Engine.t * Leotp_util.Rng.t
(** Start a run: reset the packet and node id counters (the trace digests
    depend on them), then create the engine and the root rng. *)

type tcp_direction =
  | Head_to_tail  (** TCP data from [nodes.(0)] to the last node *)
  | Tail_to_head
      (** from the last node to [nodes.(0)]: the way LEOTP's Data
          travels, so both cross the same bottleneck on the emulated
          satellite paths *)

val run_flow :
  ?bytes:int ->
  ?faults:Leotp_sim.Fault.schedule ->
  ?trace:Leotp_net.Trace.t ->
  ?on_reports:(Invariants.report list -> unit) ->
  ?links:Leotp_net.Link.t list ->
  ?label:string ->
  engine:Leotp_sim.Engine.t ->
  rng:Leotp_util.Rng.t ->
  chain:Leotp_net.Topology.chain ->
  tcp:tcp_direction ->
  floor:float ->
  warmup:float ->
  duration:float ->
  protocol ->
  summary
(** Run one flow of [protocol] over a chain the caller has built on
    [engine] (LEOTP's Consumer on [nodes.(0)], its Producer on the last
    node; TCP in direction [tcp]) until [duration], under {!observed}
    with the midnodes' end-of-run PIT sweep, and summarize it.  [floor]
    is the propagation floor of the queuing statistic.  [faults], when
    non-empty, is installed on [engine] before the session starts (see
    {!run_chain}).  [links] fixes the order of the end-of-run link
    records (default: hop order, [fwd] before [rev]); [label] names the
    run in an invariant violation (default: the protocol name).  The
    Partial-coverage variant draws the ["coverage"] substream of [rng]
    when the session is created. *)

val run_chain :
  ?seed:int ->
  ?bytes:int ->
  ?duration:float ->
  ?warmup:float ->
  ?bandwidth_schedule:(int * Leotp_net.Bandwidth.t) list ->
  ?faults:Leotp_sim.Fault.schedule ->
  ?trace:Leotp_net.Trace.t ->
  ?on_reports:(Invariants.report list -> unit) ->
  hops:link_params list ->
  protocol ->
  summary
(** Run one flow over a chain of [hops].  [bytes] = fixed transfer (the
    run ends at completion or [duration]); omitted = bulk flow measured
    over [warmup, duration).  [bandwidth_schedule] overrides the
    bandwidth model of selected hops (e.g. square-wave bottlenecks).
    Propagation floor for the queuing statistic is the sum of hop
    delays.

    [faults] installs a {!Leotp_sim.Fault} schedule: [Hop i] targets the
    chain's hop [i mod n] (both directions), [Mid k] the session's
    midnode [k mod m] (ignored for protocols without midnodes).  [trace]
    records the packet trace; [on_reports] receives the five invariant
    verdicts (see {!observed}). *)

val run_faulted :
  ?bytes:int ->
  ?duration:float ->
  ?warmup:float ->
  ?faults:Leotp_sim.Fault.schedule ->
  ?trace:Leotp_net.Trace.t ->
  hops:link_params list ->
  protocol ->
  summary * Invariants.report list
(** {!run_chain} at seed 42 with the invariant checker always attached;
    returns the verdicts instead of raising. *)

val uniform_hops : n:int -> link_params -> link_params list

val summarize :
  ?congestion_drops:int ->
  protocol:string ->
  metrics:Leotp_net.Flow_metrics.t ->
  floor:float ->
  warmup:float ->
  duration:float ->
  unit ->
  summary
(** Build a summary from raw flow metrics.  Bulk flows measure goodput
    over [warmup, duration); a completed transfer divides its bytes by
    its completion time. *)

val run_flows_dumbbell :
  ?seed:int ->
  ?bytes:int ->
  ?duration:float ->
  ?faults:Leotp_sim.Fault.schedule ->
  ?trace:Leotp_net.Trace.t ->
  ?on_reports:(Invariants.report list -> unit) ->
  access_delays:float list ->
  bottleneck:link_params ->
  access:link_params ->
  starts:float list ->
  protocol ->
  summary list * (float * float) list list
(** Fairness topology (Fig 15): one flow per access delay, flow [i]
    starting at [starts.(i)].  Returns per-flow summaries and per-flow
    throughput time series (1 s buckets, Mbps).  [bytes] bounds every
    flow (default: unlimited sources); [faults] resolve against a pool
    of bottleneck-then-access duplexes, so [Hop 0] is always the shared
    link.  Used by the fuzzer's many-flow dimension with the oracle
    attached to [trace]. *)
