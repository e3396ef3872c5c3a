type link_kind = Gsl | Isl
type hop = { distance : float; kind : link_kind }

let ground_pos (c : Cities.t) ~time =
  Geo.ground_position ~lat_deg:c.Cities.lat ~lon_deg:c.Cities.lon ~time

(* [Geo.distance] between two points given by their coordinates, with
   its float operations in its order (so the same bits); inlined, so no
   coordinate is boxed. *)
let[@inline] distance ax ay az bx by bz =
  let dx = ax -. bx and dy = ay -. by and dz = az -. bz in
  sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz))

(* [Geo.visible] of a satellite at (x, y, z), with [Geo.elevation_deg]'s
   float operations in its order, so the same verdict.  A satellite at or
   below the horizon (a non-positive dot product: elevation <= 0 deg)
   skips the arccosine; that is most of the shell. *)
let[@inline] sees_xyz gx gy gz x y z =
  let tx = x -. gx and ty = y -. gy and tz = z -. gz in
  let dot = (gx *. tx) +. (gy *. ty) +. (gz *. tz) in
  dot > 0.0
  &&
  let cos_zenith =
    dot
    /. (sqrt ((gx *. gx) +. (gy *. gy) +. (gz *. gz))
       *. sqrt ((tx *. tx) +. (ty *. ty) +. (tz *. tz)))
  in
  let c =
    if cos_zenith > 1.0 then 1.0
    else if cos_zenith < -1.0 then -1.0
    else cos_zenith
  in
  90.0 -. (Float.acos c *. 180.0 /. Float.pi) >= Geo.elevation_mask_deg

let visible ~(ground : Geo.vec3) ~x ~y ~z =
  sees_xyz ground.x ground.y ground.z x y z

(* One GSL per ground station (the HYPATIA-style model), but the few
   nearest visible satellites are offered as candidates: a station's
   single dish tracks one satellite, and routing decides which
   attachment serves the path (the strictly-nearest satellite can be on
   a grid-distant ascending/descending pass, which would send the route
   half-way around the orbit). *)
let gsl_candidates = 4

(* The flat state of a route query, built once and reused by every later
   query: node positions, the constellation graph (its static +grid rows,
   then the two ground stations, nodes [sats] and [sats + 1]) with its
   Dijkstra state, and a ground station's GSL candidates.  A query
   allocates only its answer. *)
type workspace = {
  walker : Walker.t;
  sats : int;
  px : float array;  (** node -> ECI x; ground stations last *)
  py : float array;
  pz : float array;
  graph : Routing.t;
  isl_degree : int array;  (** each row's +grid links; GSLs follow them *)
  cand_sat : int array;  (** nearest first, ties to the lower id *)
  cand_d : float array;
  mutable cands : int;
}

let workspace walker =
  let n = Walker.count walker in
  let grid = Array.init n (fun sat -> Walker.isl_neighbors walker ~sat) in
  let graph =
    Routing.create
      ~capacity:
        (Array.init (n + 2) (fun u ->
             if u < n then List.length grid.(u) + 2 else gsl_candidates))
  in
  (* Each link once, from its lower end, in satellite order: every row
     lists its neighbours in that insertion order. *)
  Array.iteri
    (fun sat others ->
      List.iter
        (fun other -> if other > sat then Routing.add_edge graph sat other 0.0)
        others)
    grid;
  {
    walker;
    sats = n;
    px = Array.make (n + 2) 0.0;
    py = Array.make (n + 2) 0.0;
    pz = Array.make (n + 2) 0.0;
    graph;
    isl_degree = Array.init n (Routing.degree graph);
    cand_sat = Array.make gsl_candidates 0;
    cand_d = Array.make gsl_candidates 0.0;
    cands = 0;
  }

let place ws u c ~time =
  let g = ground_pos c ~time in
  ws.px.(u) <- g.x;
  ws.py.(u) <- g.y;
  ws.pz.(u) <- g.z

(* Every node's position at [time]: the satellites', and the two
   cities' at nodes [sats] and [sats + 1]. *)
let fill ws ~src ~dst ~time =
  Walker.positions ws.walker ~time ~x:ws.px ~y:ws.py ~z:ws.pz;
  place ws ws.sats src ~time;
  place ws (ws.sats + 1) dst ~time

let[@inline] node_distance ws u v =
  distance ws.px.(u) ws.py.(u) ws.pz.(u) ws.px.(v) ws.py.(v) ws.pz.(v)

let[@inline] sees_from ws g s =
  sees_xyz ws.px.(g) ws.py.(g) ws.pz.(g) ws.px.(s) ws.py.(s) ws.pz.(s)

(* The +grid links at this instant's distances (a distance is symmetric,
   so both directions get the same bits), with last query's GSLs cut. *)
let reweigh ws =
  let g = ws.graph in
  let nbr = Routing.neighbours g and wt = Routing.weights g in
  for u = 0 to ws.sats - 1 do
    Routing.truncate g u ws.isl_degree.(u);
    let base = Routing.first g u in
    for e = base to base + ws.isl_degree.(u) - 1 do
      wt.(e) <- node_distance ws u nbr.(e)
    done
  done;
  Routing.truncate g ws.sats 0;
  Routing.truncate g (ws.sats + 1) 0

(* The [gsl_candidates] nearest satellites visible from ground node [g],
   by (distance, id): an insertion from the back of at most four.
   Satellites arrive in id order, so one tied on distance with a kept
   one stays behind it. *)
let pick ws g =
  ws.cands <- 0;
  for s = 0 to ws.sats - 1 do
    if sees_from ws g s then begin
      let d = node_distance ws g s in
      let k = ws.cands in
      if k < gsl_candidates || d < ws.cand_d.(k - 1) then begin
        let i = ref (min k (gsl_candidates - 1)) in
        while !i > 0 && ws.cand_d.(!i - 1) > d do
          ws.cand_d.(!i) <- ws.cand_d.(!i - 1);
          ws.cand_sat.(!i) <- ws.cand_sat.(!i - 1);
          decr i
        done;
        ws.cand_d.(!i) <- d;
        ws.cand_sat.(!i) <- s;
        ws.cands <- min (k + 1) gsl_candidates
      end
    end
  done

let attach ws g =
  pick ws g;
  for i = 0 to ws.cands - 1 do
    Routing.add_edge ws.graph g ws.cand_sat.(i) ws.cand_d.(i)
  done

(* The hops of the last search's path into [v], back to its source. *)
let rec hops ws acc v =
  let u = Routing.prev ws.graph v in
  if u < 0 then acc
  else
    let kind = if u >= ws.sats || v >= ws.sats then Gsl else Isl in
    hops ws ({ distance = node_distance ws u v; kind } :: acc) u

(* Shortest path src-ground -> (GSL) -> satellites (+grid ISLs) -> (GSL)
   -> dst-ground, by total distance. *)
let isl_route ws ~src ~dst ~time =
  let n = ws.sats in
  fill ws ~src ~dst ~time;
  reweigh ws;
  attach ws n;
  attach ws (n + 1);
  if Routing.dijkstra ws.graph ~src:n ~dst:(n + 1) then
    Some (hops ws [] (n + 1))
  else None

(* The satellite visible from both stations minimizing the up-and-down
   distance, ties to the lower id. *)
let bent_pipe ws ~src ~dst ~time =
  let g1 = ws.sats and g2 = ws.sats + 1 in
  fill ws ~src ~dst ~time;
  let best = ref (-1) and best_d = ref Float.infinity in
  for s = 0 to ws.sats - 1 do
    if sees_from ws g1 s && sees_from ws g2 s then begin
      let d = node_distance ws g1 s +. node_distance ws g2 s in
      if d < !best_d then begin
        best := s;
        best_d := d
      end
    end
  done;
  if !best < 0 then None
  else
    Some
      [
        { distance = node_distance ws g1 !best; kind = Gsl };
        { distance = node_distance ws !best g2; kind = Gsl };
      ]

let route_with_isls w ~src ~dst ~time () =
  isl_route (workspace w) ~src ~dst ~time

let route_bent_pipe w ~src ~dst ~time = bent_pipe (workspace w) ~src ~dst ~time

(* Per-epoch route memo.  A fleet admitting 1000 flows between the same
   city pair within one routing epoch would otherwise run Dijkstra over
   1600 satellites 1000 times for the same answer.  Times are quantized
   to the epoch, so the key space stays bounded by
   (city pairs) x (epochs touched).  The workspace is made lazily and
   lives as long as the memo: a fleet shard's memo takes it with it. *)
module Memo = struct
  type t = {
    walker : Walker.t;
    epoch : float;
    table : (string * string * bool * float, hop list option) Hashtbl.t;
    mutable ws : workspace option;  (** made by the first compute *)
    mutable queries : int;
    mutable computes : int;
  }

  let create ?(epoch = 0.0) walker =
    {
      walker;
      epoch;
      table = Hashtbl.create 64;
      ws = None;
      queries = 0;
      computes = 0;
    }

  let quantize t time =
    if t.epoch > 0.0 then Float.of_int (int_of_float (time /. t.epoch)) *. t.epoch
    else time

  let route t ~src ~dst ~isls ~time =
    t.queries <- t.queries + 1;
    let time = quantize t time in
    let key = (src.Cities.name, dst.Cities.name, isls, time) in
    match Hashtbl.find_opt t.table key with
    | Some r -> r
    | None ->
      t.computes <- t.computes + 1;
      let ws =
        match t.ws with
        | Some ws -> ws
        | None ->
          let ws = workspace t.walker in
          t.ws <- Some ws;
          ws
      in
      let r =
        if isls then isl_route ws ~src ~dst ~time
        else bent_pipe ws ~src ~dst ~time
      in
      Hashtbl.replace t.table key r;
      r

  let queries t = t.queries
  let computes t = t.computes
  let clear t =
    Hashtbl.reset t.table;
    t.queries <- 0;
    t.computes <- 0
end

(* Instants with no route are kept as [`No_route]: the trace generator
   turns them into explicit outage intervals instead of silently holding
   the last path. *)
let snapshots_with_gaps ?(epoch = 0.0) w ~src ~dst ~isls ~t_end ~step =
  let memo = Memo.create ~epoch w in
  let rec go time acc =
    if time > t_end then List.rev acc
    else begin
      let entry =
        match Memo.route memo ~src ~dst ~isls ~time with
        | Some hops -> `Route hops
        | None -> `No_route
      in
      go (time +. step) ((time, entry) :: acc)
    end
  in
  go 0.0 []

let signature hops =
  List.map (fun h -> Float.round (Leotp_util.Units.m_to_km h.distance)) hops

let total_delay hops =
  List.fold_left (fun acc h -> acc +. Geo.propagation_delay h.distance) 0.0 hops

let hop_count = List.length
