(** Time-varying linear path (link switching and rerouting).

    A chain is allocated with a fixed maximum hop count; reconfigurations
    change per-hop delay / bandwidth / loss over time.  When the new route
    has fewer hops than the chain, the surplus hops become "pass-through"
    (negligible delay, high rate, no loss) so transport objects survive the
    change — which is exactly the property LEOTP's connectionless design
    exploits, while TCP endpoints simply observe a changed end-to-end path.

    Any hop that changes by more than a per-dimension epsilon — 50 us of
    delay, 4 Mbps of bandwidth or 5e-3 of loss rate — is flushed: queued
    and in-flight packets are dropped, reproducing the paper's "link
    switching causes inevitable packet loss" (§V-B).  The thresholds are
    tight enough to catch any real handover, loose enough that the
    paper's per-second bandwidth bias and handover "V" ramps do not read
    as switches.  Besides explicit snapshot lists, a path can replay a
    recorded {!Path_trace} timeline, including its outage windows
    (chain-wide link-down intervals through the {!Leotp_sim.Fault}
    plumbing). *)

type hop_state = {
  delay : float;
  bandwidth : Bandwidth.t;
  plr : float;
}

type snapshot = hop_state array
(** Active hops, source side first; length <= max hops of the chain. *)

type t

val create :
  Leotp_sim.Engine.t ->
  rng:Leotp_util.Rng.t ->
  max_hops:int ->
  initial:snapshot ->
  unit ->
  t
(** A chain of [max_hops] hops, each with a 256 KB drop-tail buffer;
    hops past [initial] start as pass-through. *)

val chain : t -> Topology.chain
val apply : t -> snapshot -> unit

val schedule : t -> (float * snapshot) list -> unit
(** Apply each snapshot at its absolute time. *)

type interp =
  | Hold_last  (** each trace sample holds until the next one *)
  | Linear of { substep : float }
      (** linearly interpolate delay/bandwidth/plr between consecutive
          same-hop-count samples, applied every [substep] seconds;
          reroutes (hop-count changes) remain steps *)

val snapshot_of_hops : max_hops:int -> Path_trace.hop array -> snapshot
(** Truncate to [max_hops] and convert Mbps rates to {!Bandwidth.t}
    (trace hops are already Consumer side first). *)

val schedule_trace : ?interp:interp -> t -> Path_trace.t -> unit
(** Replay a recorded timeline: schedule every route sample (under the
    interpolation policy, default {!Hold_last}) and turn every outage
    interval into a chain-wide link-down window via
    {!Leotp_sim.Fault.install}, so going dark drops in-flight packets
    exactly like an injected fault. *)

val active_hops : t -> int
val switch_count : t -> int
