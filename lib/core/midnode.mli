(** LEOTP Midnode: a transparent in-network transport element
    (ground station or satellite).

    Per passing flow it keeps a few soft states (paper §VII: "tens of
    bytes ... can be reconstructed rapidly upon failures"): SHR loss
    detection, the upstream hop's congestion controller, and a sending
    buffer paced at the rate advertised by the downstream node.  All
    packets keep the endpoints' addresses (§IV-A, IP_TRANSPARENT); the
    Midnode intercepts, processes and re-emits them.

    Behaviour under ablation (Table II): with [No_cache] the cache, SHR
    and VPH are disabled (no in-network retransmission); with [E2e_cc]
    Interests and Data pass through without timestamp/sendRate rewriting
    and without buffering, so congestion control stays end-to-end while
    the cache still repairs losses. *)

type t

val create :
  Leotp_sim.Engine.t -> config:Config.t -> node:Leotp_net.Node.t -> unit -> t
(** Installs the intercepting handler on [node].  Non-LEOTP packets are
    forwarded untouched. *)

type flow_stats = {
  vph_sent : int;
  shr_interests : int;
  cache_hits : int;
}

val flow_stats : t -> flow:int -> flow_stats option

val cache : t -> Cache.t

val crash : t -> unit
(** Fault injection: lose all soft state (cache, PIT, per-flow SHR / CC /
    buffers) and degrade to a plain forwarder, as if the LEOTP process
    died while the router stayed up.  Idempotent. *)

val restart : t -> unit
(** Re-install the intercepting handler with cold state. *)

val sweep_pit : t -> now:float -> unit
(** Expire stale PIT entries (end-of-run cleanup for the invariant
    checker; also happens amortized during operation). *)

val retire_flow : t -> flow:int -> unit
(** Drop one flow's soft state (SHR / hop CC / sending buffer), evict its
    cached ranges and expire its PIT entries, releasing every pooled
    packet the flow still holds here.  Other flows are untouched.  Used by
    the many-flow fleet when a flow completes. *)

val pit_blocked : t -> int
(** Duplicate Interests absorbed by the pending-Interest table
    (multicast, paper §VII). *)

val pit_pending : t -> int
(** Current PIT size (leak checks after flow retirement). *)
