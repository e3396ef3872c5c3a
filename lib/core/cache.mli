(** Midnode block cache (paper §IV-A).

    Data is grouped into fixed-size blocks per flow ("we gather every 4096
    consequent bytes in the same data flow to one block"), indexed by
    (flow, block) with LRU replacement over blocks.  A block keeps the
    byte ranges it holds in a {!Leotp_util.Interval_set} (emptied with
    [clear] when an evicted block is reused), plus the origin timestamp /
    retx metadata needed to re-serve a range.

    Capacity is in bytes of cached payload; eviction removes whole
    blocks.  A block is keyed by one packed int: [insert], [lookup] and
    [contains] raise [Invalid_argument] for a negative flow or one of
    [2^30] or more, and for a byte offset whose block index is negative
    or needs more than 32 bits. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

val create : ?label:string -> config:Config.t -> unit -> t
(** [label] names this cache in trace events (the owning node's name). *)

val insert : t -> Leotp_net.Packet.t -> unit
(** [insert t data] caches a Data packet's range [lo, hi) for its flow,
    with the first-send time and retx flag it carries.  They are read
    from its slots, so nothing is boxed; the packet stays the
    caller's. *)

val lookup : t -> flow:int -> lo:int -> hi:int -> (float * bool) option
(** [Some (first_sent, retx)] iff every byte of [lo, hi) is cached.
    Counts a hit or a miss. *)

val contains : t -> flow:int -> lo:int -> hi:int -> bool
(** Like {!lookup} but without touching LRU order or stats. *)

val used_bytes : t -> int
val stats : t -> stats

val clear : t -> unit
(** Drop every block (midnode crash); does not count as evictions. *)

val drop_flow : t -> flow:int -> unit
