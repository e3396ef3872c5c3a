(** Open-addressing hash table keyed by a byte range [(flow, lo, hi)]:
    the pending-Interest table's entries and a sending buffer's dedup
    names (paper §VII, §III-C).

    Keys and payloads sit in parallel arrays indexed by slot, probed
    linearly and doubled to grow, so no operation allocates once the
    arrays have grown; they are made on the first {!add}.  Each slot
    carries a payload of one float stamp, one int value and a list of
    further ints (newest first, for the rare key with several); a set
    ignores it.

    A slot index stays valid until the next {!add}, {!remove} or
    {!clear}: growth rehashes and removal shifts later keys back. *)

type t

val create : unit -> t
(** An empty table; its arrays are made on the first {!add}. *)

val length : t -> int

val find : t -> flow:int -> lo:int -> hi:int -> int
(** The slot holding the key, or [-1]. *)

val add : t -> flow:int -> lo:int -> hi:int -> int
(** Insert a key that is not in the table and return its slot, with the
    payload zeroed.  [flow] must not be [min_int]. *)

val remove : t -> int -> unit
(** Delete the key in an occupied slot. *)

val clear : t -> unit
(** Delete every key, keeping the arrays for reuse. *)

(** {2 Slots} *)

val slots : t -> int
(** Slot count: slot [s] in [0, slots t) holds a key iff {!occupied}. *)

val occupied : t -> int -> bool
val flow : t -> int -> int
val lo : t -> int -> int
val hi : t -> int -> int

(** {2 Payload of an occupied slot} *)

val set : t -> int -> stamp:float -> value:int -> unit
(** Store a stamp and a value, and empty the further values. *)

val younger : t -> int -> now:float -> than:float -> bool
(** [now -. stamp < than], computed without boxing a float. *)

val stamps : t -> float array
(** Slot -> stamp, shared with the table until the next {!add}: a caller
    that needs a stamp as a float reads it here rather than through a
    function, whose float result would be boxed. *)

val value : t -> int -> int
val more : t -> int -> int list
(** The further values, newest first. *)

val push_more : t -> int -> int -> unit
(** Prepend a further value. *)
