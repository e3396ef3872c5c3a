(** Unit conversions used throughout the simulator.

    Internal conventions: time in seconds, sizes in bytes, rates in
    bytes/second, distances in meters.  The paper quotes link rates in
    Mbps (decimal megabits) and delays in milliseconds.

    Inline conversion constants elsewhere in lib/ are flagged by the
    leotp-lint dim pass (rule dim-raw-conversion); this module is
    where they are allowed to live. *)

let bits_per_byte = 8.0

(** Speed of light in vacuum, m/s (used for ISL propagation delays). *)
let speed_of_light = 299_792_458.0

let mbps_to_bytes_per_sec mbps = mbps *. 1_000_000.0 /. bits_per_byte
let bytes_per_sec_to_mbps bps = bps *. bits_per_byte /. 1_000_000.0
let ms_to_sec ms = ms /. 1_000.0
let sec_to_ms s = s *. 1_000.0
let usec_to_sec us = us /. 1_000_000.0
let sec_to_usec s = s *. 1_000_000.0
let km_to_m km = km *. 1_000.0
let m_to_km m = m /. 1_000.0
let bytes_to_bits b = b *. bits_per_byte
let bits_to_bytes b = b /. bits_per_byte
let mb_to_bytes mb = mb *. 1_000_000.0
let bytes_to_mb b = b /. 1_000_000.0

(* Integer variants for byte counters (file sizes, buffer budgets). *)
let mb_to_bytes_int mb = mb * 1_000_000
let bytes_to_mb_int b = b / 1_000_000

(** Earth's mean radius, meters. *)
let earth_radius = 6_371_000.0

(** Standard gravitational parameter of Earth, m^3/s^2. *)
let earth_mu = 3.986_004_418e14
