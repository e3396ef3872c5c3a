type vec3 = { x : float; y : float; z : float }

let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale k v = { x = k *. v.x; y = k *. v.y; z = k *. v.z }
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm v = sqrt (dot v v)
let distance a b = norm (sub a b)

let rot_z a v =
  let c = cos a and s = sin a in
  { x = (c *. v.x) -. (s *. v.y); y = (s *. v.x) +. (c *. v.y); z = v.z }

let rot_x a v =
  let c = cos a and s = sin a in
  { x = v.x; y = (c *. v.y) -. (s *. v.z); z = (s *. v.y) +. (c *. v.z) }

let earth_rotation_rate = 7.292_115e-5
let deg_to_rad d = d *. Float.pi /. 180.0

let ground_position ~lat_deg ~lon_deg ~time =
  let lat = deg_to_rad lat_deg in
  let lon = deg_to_rad lon_deg +. (earth_rotation_rate *. time) in
  let r = Leotp_util.Units.earth_radius in
  {
    x = r *. cos lat *. cos lon;
    y = r *. cos lat *. sin lon;
    z = r *. sin lat;
  }

let elevation_deg ~ground ~sat =
  let to_sat = sub sat ground in
  let cos_zenith = dot ground to_sat /. (norm ground *. norm to_sat) in
  (* Elevation = 90 deg - zenith angle. *)
  90.0 -. (Float.acos (Float.min 1.0 (Float.max (-1.0) cos_zenith)) *. 180.0 /. Float.pi)

let elevation_mask_deg = 25.0

let visible ~ground ~sat = elevation_deg ~ground ~sat >= elevation_mask_deg

let great_circle_distance ~lat1 ~lon1 ~lat2 ~lon2 =
  let p1 = deg_to_rad lat1 and p2 = deg_to_rad lat2 in
  let dl = deg_to_rad (lon2 -. lon1) in
  let central =
    Float.acos
      (Float.min 1.0
         (Float.max (-1.0)
            ((sin p1 *. sin p2) +. (cos p1 *. cos p2 *. cos dl))))
  in
  Leotp_util.Units.earth_radius *. central

let propagation_delay d = d /. Leotp_util.Units.speed_of_light
