(** Geometry for orbital mechanics: 3-vectors, Earth-fixed and inertial
    frames, visibility.

    Convention: positions in meters in an Earth-centered inertial (ECI)
    frame; ground stations rotate with the Earth. *)

type vec3 = { x : float; y : float; z : float }

val scale : float -> vec3 -> vec3
val dot : vec3 -> vec3 -> float
val norm : vec3 -> float
val distance : vec3 -> vec3 -> float

val rot_z : float -> vec3 -> vec3
(** Rotation about the z axis by the given angle (radians). *)

val rot_x : float -> vec3 -> vec3

val ground_position : lat_deg:float -> lon_deg:float -> time:float -> vec3
(** ECI position of a point on the Earth's surface at [time] seconds
    (Earth rotation included). *)

val elevation_deg : ground:vec3 -> sat:vec3 -> float
(** Elevation angle of [sat] above the local horizon at [ground]. *)

val elevation_mask_deg : float
(** 25 degrees: the Starlink terminals' elevation mask. *)

val visible : ground:vec3 -> sat:vec3 -> bool
(** [sat] is at least {!elevation_mask_deg} above [ground]'s horizon. *)

val great_circle_distance : lat1:float -> lon1:float -> lat2:float -> lon2:float -> float
(** Surface distance in meters between two lat/lon points (degrees). *)

val propagation_delay : float -> float
(** Delay in seconds for a straight-line distance in meters. *)
