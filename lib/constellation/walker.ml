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

let isl_neighbors t ~sat =
  let s = sat_of_id t sat in
  let np = t.p.planes and ns = t.p.sats_per_plane in
  [
    sat_id t { s with index = (s.index + 1) mod ns };
    sat_id t { s with index = (s.index + ns - 1) mod ns };
    sat_id t { s with plane = (s.plane + 1) mod np };
    sat_id t { s with plane = (s.plane + np - 1) mod np };
  ]

let nearest_visible t ~ground ~time =
  let best = ref None in
  for sat = 0 to count t - 1 do
    let pos = position t ~sat ~time in
    if Geo.visible ~ground ~sat:pos then begin
      let d = Geo.distance ground pos in
      match !best with
      | Some (_, bd) when bd <= d -> ()
      | _ -> best := Some (sat, d)
    end
  done;
  Option.map fst !best

let common_visible t ~ground1 ~ground2 ~time =
  let best = ref None in
  for sat = 0 to count t - 1 do
    let pos = position t ~sat ~time in
    if
      Geo.visible ~ground:ground1 ~sat:pos
      && Geo.visible ~ground:ground2 ~sat:pos
    then begin
      let d = Geo.distance ground1 pos +. Geo.distance ground2 pos in
      match !best with
      | Some (_, bd) when bd <= d -> ()
      | _ -> best := Some (sat, d)
    end
  done;
  Option.map fst !best
