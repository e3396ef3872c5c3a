type params = {
  planes : int;
  sats_per_plane : int;
  altitude : float;
  inclination_deg : float;
  phasing_factor : int;
}

let starlink =
  {
    planes = 32;
    sats_per_plane = 50;
    altitude = 1_150_000.0;
    inclination_deg = 53.0;
    phasing_factor = 1;
  }

type t = { p : params; radius : float; period : float }
type sat = { plane : int; index : int }

let create p =
  let radius = Leotp_util.Units.earth_radius +. p.altitude in
  let period =
    2.0 *. Float.pi *. sqrt (radius ** 3.0 /. Leotp_util.Units.earth_mu)
  in
  { p; radius; period }

let count t = t.p.planes * t.p.sats_per_plane
let sat_id t s = (s.plane * t.p.sats_per_plane) + s.index

let sat_of_id t id =
  { plane = id / t.p.sats_per_plane; index = id mod t.p.sats_per_plane }

let orbital_period t = t.period

let position t ~sat ~time =
  let s = sat_of_id t sat in
  let two_pi = 2.0 *. Float.pi in
  let raan = two_pi *. float_of_int s.plane /. float_of_int t.p.planes in
  let incl = t.p.inclination_deg *. Float.pi /. 180.0 in
  (* In-plane phase: slot offset + Walker inter-plane phasing + motion. *)
  let phase0 =
    two_pi
    *. ((float_of_int s.index /. float_of_int t.p.sats_per_plane)
       +. (float_of_int (t.p.phasing_factor * s.plane)
          /. float_of_int (count t)))
  in
  let phase = phase0 +. (two_pi *. time /. t.period) in
  let in_plane =
    { Geo.x = t.radius *. cos phase; y = t.radius *. sin phase; z = 0.0 }
  in
  Geo.rot_z raan (Geo.rot_x incl in_plane)

(* [position] for every satellite, with the same float operations in the
   same order (so the same bits), hoisting what a plane shares: one
   sine/cosine pair per satellite instead of three. *)
let positions t ~time ~x ~y ~z =
  let two_pi = 2.0 *. Float.pi in
  let incl = t.p.inclination_deg *. Float.pi /. 180.0 in
  let ci = cos incl and si = sin incl in
  let motion = two_pi *. time /. t.period in
  let np = t.p.planes and ns = t.p.sats_per_plane in
  for plane = 0 to np - 1 do
    let raan = two_pi *. float_of_int plane /. float_of_int np in
    let cr = cos raan and sr = sin raan in
    let shift =
      float_of_int (t.p.phasing_factor * plane) /. float_of_int (count t)
    in
    for index = 0 to ns - 1 do
      let phase =
        (two_pi *. ((float_of_int index /. float_of_int ns) +. shift))
        +. motion
      in
      let px = t.radius *. cos phase and py = t.radius *. sin phase in
      (* [Geo.rot_x incl], then [Geo.rot_z raan], of (px, py, 0). *)
      let qy = (ci *. py) -. (si *. 0.0) and qz = (si *. py) +. (ci *. 0.0) in
      let s = (plane * ns) + index in
      x.(s) <- (cr *. px) -. (sr *. qy);
      y.(s) <- (sr *. px) +. (cr *. qy);
      z.(s) <- qz
    done
  done

let isl_neighbors t ~sat =
  let np = t.p.planes and ns = t.p.sats_per_plane in
  let plane = sat / ns and index = sat mod ns in
  [
    (plane * ns) + ((index + 1) mod ns);
    (plane * ns) + ((index + ns - 1) mod ns);
    (((plane + 1) mod np) * ns) + index;
    (((plane + np - 1) mod np) * ns) + index;
  ]
