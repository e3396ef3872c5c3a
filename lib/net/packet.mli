(** Simulated network packets, as flat recyclable records.

    A packet's payload lives inline in fixed slots — [kind] selects the
    layout (int fields in [i0]..[i7], floats in [f], flags bits in
    [flags]); the owning wire module documents and owns each layout and
    provides the cursor codecs.  Records come from {!Packet_pool} and are
    released back to it at every sink, so the steady-state hot path
    allocates nothing per packet.  [size] is the total on-wire size in
    bytes and is what links charge for serialization and queue
    occupancy. *)

type t = {
  mutable id : int;  (** globally unique, for tracing *)
  mutable src : int;  (** origin node id *)
  mutable dst : int;  (** destination node id (used by forwarders) *)
  mutable flow : int;  (** flow identifier *)
  mutable size : int;  (** bytes on the wire *)
  mutable kind : int;  (** payload layout selector (see wire modules) *)
  mutable flags : int;  (** bit set: [flag_retx], [flag_fin], ... *)
  mutable i0 : int;
  mutable i1 : int;
  mutable i2 : int;
  mutable i3 : int;
  mutable i4 : int;
  mutable i5 : int;
  mutable i6 : int;
  mutable i7 : int;
  f : float array;  (** [float_slots] entries *)
  mutable str : string;  (** opaque payload ([kind_raw], tests) *)
}

val kind_raw : int
(** opaque payload in [str]; protocol kinds are registered in the wire
    modules (see the slot registry note in packet.ml) *)

val flag_retx : int
val flag_fin : int
val flag_ts_echo : int

val flag_free : int
(** set while the record sits in the pool free list; checked by the
    pool's debug mode to catch double releases *)

val float_slots : int

val get_flag : t -> int -> bool
val set_flag : t -> int -> bool -> unit

val blank : unit -> t
(** Allocate a zeroed record with no id.  Only {!Packet_pool} (to grow
    the pool) and packet-queue placeholders may call this — flagged by
    the [hot-path-alloc] lint rule elsewhere. *)

val assign_fresh_id : t -> unit
(** Stamp the next domain-local packet id (and bump the lifetime
    creation counter).  Called on pool acquisition and at in-place
    re-origination points; consuming ids at exactly the historical
    creation points keeps trace digests bit-identical. *)

val reset_ids : unit -> unit
(** Reset the id counter (between independent experiments). *)

val created_on_domain : unit -> int
(** Lifetime count of logical packets created on the calling domain.
    Not affected by {!reset_ids}; the bench runner reads deltas around
    each job for per-packet allocation accounting. *)

val pp : Format.formatter -> t -> unit
