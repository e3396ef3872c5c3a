(** Shortest paths over a flat weighted graph: the route service's kernel.

    Each node's neighbours sit in a fixed-capacity row of one [int array]
    (CSR layout: node [u]'s row starts at slot {!first}), their weights in
    a parallel [float array], and a row fills in first-insertion order.
    Dijkstra keeps flat distance, predecessor and visited arrays and a
    (float key, int node) binary heap, so a graph built once answers
    every later search without allocating: the route service reweighs
    its static +grid rows in place and rewrites only the ground stations'
    links per query.

    HYPATIA (which the paper uses) computes routes with Floyd-Warshall;
    for the 1600-node constellation only a handful of source-destination
    pairs are needed per snapshot, so Dijkstra is used, and the tests
    keep Floyd-Warshall as its oracle. *)

type t

val create : capacity:int array -> t
(** An edgeless graph of [Array.length capacity] nodes; node [u]'s row
    holds up to [capacity.(u)] neighbours. *)

val add_edge : t -> int -> int -> float -> unit
(** Undirected.  A repeated edge keeps the smaller weight in place; a new
    one goes after each end's earlier neighbours.  Raises
    [Invalid_argument] on a node out of range, a negative or nan weight,
    or a full row. *)

val degree : t -> int -> int
(** Neighbours in the node's row. *)

val truncate : t -> int -> int -> unit
(** [truncate g u k] keeps [u]'s first [k] neighbours and forgets the
    rest of its row (one direction only: the far ends keep theirs). *)

val first : t -> int -> int
(** Slot of the node's first neighbour: its row is slots [first g u] to
    [first g u + degree g u - 1] of {!neighbours} and {!weights}. *)

val neighbours : t -> int array
(** Slot -> neighbour, shared with the graph. *)

val weights : t -> float array
(** Slot -> edge weight, shared with the graph: a caller may reweigh an
    edge in place, and must then write the same weight in both of its
    directions. *)

val dijkstra : t -> src:int -> dst:int -> bool
(** Shortest paths from [src] until [dst] is settled; [false] when [dst]
    is unreachable.  Allocates nothing once the heap has grown to the
    search's frontier. *)

val dist : t -> int -> float
(** Distance from the last search's source; settled nodes and [dst] are
    exact, [infinity] = not reached. *)

val prev : t -> int -> int
(** Predecessor on the last search's shortest-path tree; [-1] at the
    source and at nodes not reached. *)
