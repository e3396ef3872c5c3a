(** Mutable sets of disjoint half-open integer intervals [lo, hi).

    The byte-range set shared by the Consumer's reassembly, the TCP
    receiver's out-of-order store and each midnode cache block (paper
    §IV-A).  The intervals are kept in place as a sorted array of
    disjoint, non-adjacent pairs, with the count of covered points;
    lookups binary-search the interval ends, and a warm {!add} (the
    array already grown) allocates nothing.  The set is read by point
    queries: {!first_present} and {!first_missing} walk its intervals
    in order, so no query takes a callback. *)

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

val first_present : t -> lo:int -> int
(** Smallest point [>= lo] in the set; [max_int] if there is none.
    With {!first_missing} from that point it reads the next interval,
    cut at [lo]. *)
