(** Ordered, allocation-free store of byte ranges in flight, keyed by
    range start: a TCP sender's unacknowledged segments, a Consumer's
    outstanding Interests and a split proxy's origin times.

    The store is read by rank: a caller finds where to start with
    {!lower_bound} and walks with {!get}, {!remove} and {!insert}, so
    no operation takes a callback. *)

(** A range's times, seconds.  All fields are floats, so the record is
    stored flat and a write boxes nothing (a float field of [seg] would
    box every value written to it). *)
type times = {
  mutable first_sent : float;
  mutable last_sent : float;
  mutable due : float;  (** Consumer: when the Interest times out *)
  mutable floor : float;  (** Consumer: the RFC 6298 floor when [due] was set *)
}

type seg = {
  mutable seq : int;  (** range start *)
  mutable len : int;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;
  times : times;
}

val make : seq:int -> len:int -> seg
(** A fresh range: every time 0, no retransmission, no flag set. *)

type t

val create : unit -> t
val is_empty : t -> bool
val length : t -> int

val get : t -> int -> seg
(** [get t i] is the range of rank [i] (0 = lowest [seq]). *)

val push_back : t -> seg -> unit
(** Append; [seg.seq] must exceed every stored sequence number. *)

val insert : t -> int -> seg -> unit
(** [insert t i seg] puts [seg] at rank [i], a {!lower_bound}. *)

val remove : t -> int -> unit
(** [remove t i] deletes rank [i]; ranks below [i] keep their ranges. *)

val lower_bound : t -> from:int -> int
(** Rank of the first range with [seq >= from]; [length t] if none. *)
