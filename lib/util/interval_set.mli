(** Sets of disjoint half-open integer intervals [lo, hi).

    This is the byte-range algebra shared by LEOTP's sequence-hole tracking
    (Algorithm 1 of the paper), the Consumer's reassembly buffer, and the
    TCP receiver's out-of-order store.  All operations keep the internal
    representation normalized: intervals are disjoint, non-empty and sorted. *)

type t

val empty : t
val is_empty : t -> bool

val add : lo:int -> hi:int -> t -> t
(** Insert [lo, hi), merging with any overlapping or adjacent intervals.
    No-op when [lo >= hi]. *)

val remove : lo:int -> hi:int -> t -> t
(** Remove every point of [lo, hi), splitting intervals as needed. *)

val mem : int -> t -> bool

val covers : lo:int -> hi:int -> t -> bool
(** [covers ~lo ~hi t] is true iff every point of [lo, hi) is in [t]. *)

val intersects : lo:int -> hi:int -> t -> bool
(** True iff [lo, hi) shares at least one point with [t]. *)

val cardinal : t -> int
(** Total number of points covered.  O(1): the count is maintained
    incrementally by {!add} and {!remove}. *)

val intervals : t -> (int * int) list
(** Intervals in increasing order. *)

val count_intervals : t -> int

val gaps : lo:int -> hi:int -> t -> (int * int) list
(** Maximal sub-intervals of [lo, hi) not covered by [t], in order. *)

val first_missing : lo:int -> t -> int
(** Smallest point [>= lo] not in [t]. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f lo hi] over intervals in increasing order. *)

val union : t -> t -> t
val equal : t -> t -> bool
