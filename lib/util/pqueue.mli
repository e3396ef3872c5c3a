(** Imperative binary min-heap.

    The comparison is fixed at creation.  Used by routing (Dijkstra, keyed
    by distance). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)
