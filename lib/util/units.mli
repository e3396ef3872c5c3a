(** Unit conversions used throughout the simulator.

    Internal conventions: time in seconds, sizes in bytes, rates in
    bytes/second, distances in meters.  The paper quotes link rates in
    Mbps (decimal megabits) and delays in milliseconds.

    Inline conversion constants elsewhere in lib/ are flagged by the
    leotp-lint dim pass (rule dim-raw-conversion); route
    conversions through these helpers instead. *)

val speed_of_light : float
(** m/s (used for ISL propagation delays). *)

val mbps_to_bytes_per_sec : float -> float
val bytes_per_sec_to_mbps : float -> float
val ms_to_sec : float -> float
val sec_to_ms : float -> float
val usec_to_sec : float -> float
val sec_to_usec : float -> float
val km_to_m : float -> float
val m_to_km : float -> float
val bytes_to_bits : float -> float
val bits_to_bytes : float -> float
val mb_to_bytes : float -> float
val bytes_to_mb : float -> float

val mb_to_bytes_int : int -> int
(** Integer variant for byte counters (file sizes, buffer budgets). *)

val bytes_to_mb_int : int -> int

val earth_radius : float
(** Earth's mean radius, meters. *)

val earth_mu : float
(** Standard gravitational parameter of Earth, m^3/s^2. *)
