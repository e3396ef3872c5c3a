(** Ordered, allocation-free store of byte ranges in flight, keyed by
    range start: a TCP sender's unacknowledged segments, a Consumer's
    outstanding Interests and a split proxy's origin times. *)

type seg = {
  mutable seq : int;  (** range start *)
  mutable len : int;
  mutable first_sent : float;
  mutable last_sent : float;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;
  mutable due : float;  (** Consumer: when the Interest times out *)
  mutable floor : float;  (** Consumer: the RFC 6298 floor when [due] was set *)
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

val find : t -> int -> seg option
(** Range whose [seq] equals the given position, if present. *)

val iter : t -> (seg -> unit) -> unit

val iter_from_while : t -> from:int -> (seg -> bool) -> unit
(** Ordered scan from the first range with [seq >= from]; stops when
    the callback returns [false].  Allocates nothing. *)

val first_lost : t -> from:int -> seg option
(** First range with [seq >= from] that is marked lost and not SACKed —
    the next retransmission candidate.  Allocates nothing beyond the
    returned option. *)

val drop_below :
  t -> cum:int -> on_drop:(seg -> unit) -> on_straddle:(seg -> int -> unit) -> unit
(** Remove every range entirely below [cum]; a straddler is truncated
    in place after [on_straddle seg head] reports its acked head. *)
