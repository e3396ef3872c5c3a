(** Ordered, allocation-free store for a TCP sender's unacknowledged
    segments: appends at increasing [seq], prefix removal on cumulative
    ACK, ordered scans and point lookups.  See [seg_store.ml] for why
    this replaces an [IntMap]. *)

type seg = {
  mutable seq : int;
  mutable len : int;
  mutable first_sent : float;
  mutable last_sent : float;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;
}

type t

val create : unit -> t
val is_empty : t -> bool

val push_back : t -> seg -> unit
(** Append; [seg.seq] must exceed every stored sequence number. *)

val first : t -> seg option

val find : t -> int -> seg option
(** Segment whose [seq] equals the given position, if present. *)

val iter : t -> (seg -> unit) -> unit

val iter_from_while : t -> from:int -> (seg -> bool) -> unit
(** Ordered scan from the first segment with [seq >= from]; stops when
    the callback returns [false].  Allocates nothing. *)

val first_lost : t -> from:int -> seg option
(** First segment with [seq >= from] that is marked lost and not
    SACKed — the next retransmission candidate.  Allocates nothing
    beyond the returned option. *)

val drop_below :
  t -> cum:int -> on_drop:(seg -> unit) -> on_straddle:(seg -> int -> unit) -> unit
(** Remove every segment entirely below [cum]; a straddler is truncated
    in place after [on_straddle seg head] reports its acked head. *)
