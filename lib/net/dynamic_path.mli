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
    plumbing): {!of_trace} is how every constellation path (the Starlink
    figures and the long-horizon trace family alike) reaches its links. *)

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

val snapshot_of_hops : max_hops:int -> Path_trace.hop array -> snapshot
(** Truncate to [max_hops] and convert Mbps rates to {!Bandwidth.t}
    (trace hops are already Consumer side first). *)

val schedule_trace : t -> Path_trace.t -> unit
(** Replay a recorded timeline: schedule one snapshot per route record,
    in record order, each held unchanged until the next one applies, and
    turn every outage interval into a chain-wide link-down window via
    {!Leotp_sim.Fault.install}, so going dark drops in-flight packets
    exactly like an injected fault.  Snapshots are scheduled before the
    outage events, so at an outage-ending instant the new route applies
    first and the links come back up second. *)

val of_trace : Leotp_sim.Engine.t -> rng:Leotp_util.Rng.t -> Path_trace.t -> t
(** The path a trace describes: a chain of as many hops as the trace's
    longest route, capped at 24 (longer routes keep their Consumer-side
    24 hops), that starts on the first route record (leading outage
    records included, which then take it down at once) and has every
    record and outage scheduled by {!schedule_trace}.  Raises
    [Invalid_argument] on a trace with no route record. *)

val active_hops : t -> int
val switch_count : t -> int
