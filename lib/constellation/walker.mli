(** Walker-delta constellation model.

    Default parameters are the paper's Starlink core shell (§V-A):
    1600 satellites evenly distributed on 32 orbital planes at 1150 km
    with 53 degrees inclination.  Orbits are ideal circles; positions are
    propagated analytically in the ECI frame. *)

type params = {
  planes : int;
  sats_per_plane : int;
  altitude : float;  (** meters above the surface *)
  inclination_deg : float;
  phasing_factor : int;  (** Walker F: inter-plane phase offset units *)
}

val starlink : params
(** 32 x 50 at 1150 km, 53 deg, F = 1. *)

type t

val create : params -> t
val count : t -> int

type sat = { plane : int; index : int }

val sat_id : t -> sat -> int
(** Dense id in [0, count). *)

val sat_of_id : t -> int -> sat
val orbital_period : t -> float  (** seconds *)

val position : t -> sat:int -> time:float -> Geo.vec3
(** ECI position of satellite [sat] (dense id) at [time]. *)

val positions :
  t -> time:float -> x:float array -> y:float array -> z:float array -> unit
(** Every satellite's {!position} at [time], bit for bit, into
    [x.(sat)], [y.(sat)], [z.(sat)] (each of length at least {!count});
    allocates nothing. *)

val isl_neighbors : t -> sat:int -> int list
(** +grid: the two intra-plane neighbours and the same-index satellites
    of the two adjacent planes. *)
