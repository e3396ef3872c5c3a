(** Shortest-path routing over a weighted graph.

    HYPATIA (which the paper uses) computes routes with Floyd-Warshall;
    for the 1600-node constellation we only ever need a handful of
    source-destination pairs per snapshot, so Dijkstra is used in
    production and Floyd-Warshall is kept for small graphs and as a
    cross-check in tests. *)

type graph

val create : nodes:int -> graph
val add_edge : graph -> int -> int -> float -> unit
(** Undirected, keeps the smaller weight on duplicates. *)

val dijkstra : graph -> src:int -> dst:int -> (int list * float) option
(** Node path (inclusive of endpoints) and total weight. *)

val floyd_warshall : graph -> float array array * int array array
(** Distance matrix and next-hop matrix; [infinity] = unreachable. *)

val fw_path : next:int array array -> src:int -> dst:int -> int list option
