(** Trace-driven dynamic paths (ROADMAP item 2, in the spirit of the
    HYPATIA / eBPF satellite-emulation papers): drive the Walker
    constellation over a long horizon, record the per-path timeline as a
    versioned {!Leotp_net.Path_trace}, and replay it — or any externally
    imported trace in the same schema — through
    {!Leotp_net.Dynamic_path.schedule_trace}, with route gaps becoming
    explicit link-down outage windows.

    Determinism contract: [generate] is a pure function of its {!spec}
    (same seed, byte-identical trace file), and [run] is a pure function
    of the trace plus the transport seed, so the packet-trace [digest] of
    a replayed file equals the digest of the live-generated run. *)

type spec = {
  src : string;
  dst : string;
  isls : bool;
  horizon : float;  (** seconds of orbital time *)
  step : float;  (** trace sample step, seconds *)
  route_epoch : float;  (** routing recompute quantum (Memo epoch) *)
  seed : int;
}

val default : spec
(** Beijing -> New York with ISLs, 1 h horizon, 1 s samples, 5 s routing
    epoch, seed 42. *)

val generate : spec -> Leotp_net.Path_trace.t
(** Sample the constellation: per-hop delay / bandwidth / plr / kind
    every [step] seconds, handover flags on route-signature changes,
    [`No_route] instants kept as outage records.  Bandwidth policy
    matches the parametric {!Starlink} scenario (10 Mbps uplink
    bottleneck with handover "V" dips and per-second bias, 20 Mbps
    elsewhere), but sampled into the trace so replays are
    self-contained. *)

type run_result = {
  summary : Common.summary;
  switches : int;  (** {!Leotp_net.Dynamic_path.switch_count} *)
  handovers : int;
  outages : int;  (** outage interval count *)
  outage_fraction : float;
  mean_hops : float;
  digest : string;  (** packet-trace digest: the determinism witness *)
}

val run :
  ?seed:int ->
  ?interp:Leotp_net.Dynamic_path.interp ->
  ?duration:float ->
  ?label:string ->
  Leotp_net.Path_trace.t ->
  run_result
(** One LEOTP bulk flow (default config) over the replayed trace.
    Defaults: transport seed = the trace's generator seed, duration =
    the trace horizon, hold-last interpolation.  Raises
    [Invalid_argument] on a trace with no route records. *)

type cell = { label : string; spec : spec }

val experiment : ?quick:bool -> unit -> (cell * run_result) list
(** Generate + replay every cell under {!Runner.map} (bit-identical for
    any job count) and print the summary table. *)
