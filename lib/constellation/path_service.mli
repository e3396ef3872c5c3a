(** Time-varying routes between ground stations over the constellation.

    Produces hop lists (distance + link kind).  The path-trace generator
    ([Leotp_scenario.Pathtrace.generate]) samples them into
    {!Leotp_net.Path_trace} records with per-kind bandwidth and loss (GSL
    vs ISL, paper §V-C); Fleet's shards read them straight from a
    {!Memo}.

    A query runs over a flat workspace: satellite positions in three
    float arrays ({!Walker.positions}), the static +grid rows of a
    {!Routing} graph reweighed in place, the ground stations' GSL
    candidates from a top-4 selection, and the graph's array-heap
    Dijkstra.  A {!Memo} makes its workspace at its first compute and
    reuses it, so a warm compute allocates only its answer (a few
    hundred words); the memo-less functions make a throwaway one per
    call. *)

type link_kind = Gsl | Isl

type hop = { distance : float; kind : link_kind }

val route_with_isls :
  Walker.t ->
  src:Cities.t ->
  dst:Cities.t ->
  time:float ->
  unit ->
  hop list option
(** Shortest path src-ground -> (GSL) -> satellites (+grid ISLs) ->
    (GSL) -> dst-ground, by total distance.  Each ground station gets a
    single GSL (the HYPATIA model the paper uses), chosen by routing
    among its four nearest satellites above the 25 degree elevation
    mask ({!Geo.visible}), ties to the lower satellite id. *)

val route_bent_pipe :
  Walker.t ->
  src:Cities.t ->
  dst:Cities.t ->
  time:float ->
  hop list option
(** The no-ISL network: up to a satellite visible from both cities and
    straight back down (2 GSL hops), through the common satellite
    minimizing the total distance (ties to the lower id); [None] when
    no common satellite is in view. *)

val visible : ground:Geo.vec3 -> x:float -> y:float -> z:float -> bool
(** {!Geo.visible} of a satellite at ECI [(x, y, z)], as both route
    functions test each satellite's flat position: the same float
    operations, so the same verdict. *)

val snapshots_with_gaps :
  ?epoch:float ->
  Walker.t ->
  src:Cities.t ->
  dst:Cities.t ->
  isls:bool ->
  t_end:float ->
  step:float ->
  (float * [ `Route of hop list | `No_route ]) list
(** The route every [step] seconds from 0 to [t_end], one entry per
    sampled instant, with [`No_route] where the pair has no path
    (bent-pipe visibility loss, unreachable ground station).  [epoch] > 0
    memoizes route computation per {!Memo} epoch, so bandwidth can be
    sampled on a finer [step] than the routing recompute quantum. *)

val signature : hop list -> float list
(** Per-hop distances rounded to whole kilometres: the route identity
    used for handover detection (compare with
    [List.equal Float.equal]). *)

(** Per-epoch memoization of route queries.  Many-flow fleets issue one
    query per admitted flow; flows between the same city pair inside one
    routing epoch share a single Dijkstra run.  The query/compute counters
    are the regression hook: tests assert that N same-pair queries cost
    exactly one compute per epoch. *)
module Memo : sig
  type t

  val create : ?epoch:float -> Walker.t -> t
  (** [epoch] (seconds) quantizes query times downward; [0.] (default)
      memoizes exact times only. *)

  val route :
    t -> src:Cities.t -> dst:Cities.t -> isls:bool -> time:float ->
    hop list option
  (** Memoized {!route_with_isls} (or {!route_bent_pipe} when [isls] is
      false) at the quantized time; [None] results are cached too. *)

  val queries : t -> int
  val computes : t -> int

  val clear : t -> unit
  (** Drop the cache and reset both counters. *)
end

val total_delay : hop list -> float
(** One-way propagation delay of the route, seconds. *)

val hop_count : hop list -> int
