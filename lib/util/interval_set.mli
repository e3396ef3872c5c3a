(** Mutable sets of disjoint half-open integer intervals [lo, hi).

    The byte-range set shared by the Consumer's reassembly, the TCP
    receiver's out-of-order store and each midnode cache block (paper
    §IV-A).  The intervals are kept in place as a sorted array of
    disjoint, non-adjacent pairs, with the count of covered points;
    lookups binary-search the interval ends, and a warm {!add} (the
    array already grown) allocates nothing. *)

type t

val create : unit -> t
(** An empty set. *)

val clear : t -> unit
(** Empty the set, keeping its array for reuse. *)

val add : t -> lo:int -> hi:int -> int
(** Insert [lo, hi), merging every interval it overlaps or abuts, and
    return the number of points newly covered.  No-op (0) when
    [lo >= hi]. *)

val covers : t -> lo:int -> hi:int -> bool
(** True iff every point of [lo, hi) is in the set. *)

val cardinal : t -> int
(** Number of points covered. *)

val first_missing : t -> lo:int -> int
(** Smallest point [>= lo] not in the set. *)

val iter_from_while : t -> from:int -> (int -> int -> bool) -> unit
(** [iter_from_while t ~from f] calls [f lo hi] on each interval holding
    a point [>= from], in increasing order, and stops when [f] returns
    [false]. *)
