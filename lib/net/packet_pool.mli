(** Domain-local free-list recycling of {!Packet.t} records.

    Every packet sink (link drop, buffer drop, terminal handler) releases
    its packet here; every creation point acquires one.  Steady-state
    simulation therefore allocates ~zero words per packet: records only
    get allocated while the pool grows toward the peak number of packets
    simultaneously alive. *)

val acquire : src:int -> dst:int -> flow:int -> size:int -> kind:int -> Packet.t
(** A record with a fresh domain-local id and all payload slots zeroed —
    indistinguishable from a newly allocated packet. *)

val release : Packet.t -> unit
(** Return a record to the pool.  The caller must hold the only live
    reference.  Double release is ignored (first release wins) unless
    debug mode is on, where it raises [Invalid_argument]. *)

val clone : Packet.t -> Packet.t
(** Copy for link-level duplication: identical fields {e including} the
    id (it is the same logical packet) — consumes no fresh id.  Cloning
    an already-released record raises [Invalid_argument] in debug mode
    (it is a use-after-release). *)

val double_release_count : unit -> int
(** Lifetime count of double releases observed, summed across domains.
    Non-debug builds ignore the redundant release (first wins) but still
    count it; tests assert the count stays 0 across a run. *)

val reset_double_release_count : unit -> unit

val set_debug : bool -> unit
(** Poison released records (sentinel ints, -inf floats, negated id) and
    raise on double release.  Also enabled by [LEOTP_POOL_DEBUG=1]. *)

val debug_enabled : unit -> bool

val poison_int : int
val poison_float : float

val live_count : unit -> int
(** Packets acquired (or cloned) on this domain and not yet released.
    Leak checks snapshot this before a run and assert a zero delta after
    teardown: every creation path goes through {!acquire}/{!clone} and
    every sink through {!release}, so the delta is exact. *)
