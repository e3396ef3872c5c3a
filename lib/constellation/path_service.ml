type link_kind = Gsl | Isl
type hop = { distance : float; kind : link_kind }

let ground_pos (c : Cities.t) ~time =
  Geo.ground_position ~lat_deg:c.Cities.lat ~lon_deg:c.Cities.lon ~time

let route_with_isls w ~src ~dst ~time () =
  let n = Walker.count w in
  let g = Routing.create ~nodes:(n + 2) in
  let src_node = n and dst_node = n + 1 in
  let pos = Array.init n (fun sat -> Walker.position w ~sat ~time) in
  (* ISL mesh (+grid). *)
  for sat = 0 to n - 1 do
    List.iter
      (fun other ->
        if other > sat then
          Routing.add_edge g sat other (Geo.distance pos.(sat) pos.(other)))
      (Walker.isl_neighbors w ~sat)
  done;
  let gp1 = ground_pos src ~time and gp2 = ground_pos dst ~time in
  (* One GSL per ground station (the HYPATIA-style model), but offer the
     few nearest visible satellites as candidates: a station's single
     dish tracks one satellite, and routing decides which attachment
     serves the path (the strictly-nearest satellite can be on a
     grid-distant ascending/descending pass, which would send the route
     half-way around the orbit). *)
  let attach node gp =
    let cands = ref [] in
    for sat = 0 to n - 1 do
      if Geo.visible ~ground:gp ~sat:pos.(sat) then
        cands := (Geo.distance gp pos.(sat), sat) :: !cands
    done;
    let sorted =
      List.sort
        (fun (d1, s1) (d2, s2) ->
          let c = Float.compare d1 d2 in
          if c <> 0 then c else Int.compare s1 s2)
        !cands
    in
    List.iteri
      (fun i (d, sat) -> if i < 4 then Routing.add_edge g node sat d)
      sorted
  in
  attach src_node gp1;
  attach dst_node gp2;
  match Routing.dijkstra g ~src:src_node ~dst:dst_node with
  | None -> None
  | Some (path, _) ->
    let rec hops = function
      | a :: (b :: _ as rest) ->
        let d =
          let p u = if u = src_node then gp1 else if u = dst_node then gp2 else pos.(u) in
          Geo.distance (p a) (p b)
        in
        let kind = if a >= n || b >= n then Gsl else Isl in
        { distance = d; kind } :: hops rest
      | _ -> []
    in
    Some (hops path)

let route_bent_pipe w ~src ~dst ~time =
  let gp1 = ground_pos src ~time and gp2 = ground_pos dst ~time in
  match Walker.common_visible w ~ground1:gp1 ~ground2:gp2 ~time with
  | None -> None
  | Some sat ->
    let pos = Walker.position w ~sat ~time in
    Some
      [
        { distance = Geo.distance gp1 pos; kind = Gsl };
        { distance = Geo.distance pos gp2; kind = Gsl };
      ]

(* Per-epoch route memo.  A fleet admitting 1000 flows between the same
   city pair within one routing epoch would otherwise run Dijkstra over
   1600 satellites 1000 times for the same answer.  Times are quantized
   to the epoch, so the key space stays bounded by
   (city pairs) x (epochs touched). *)
module Memo = struct
  type t = {
    walker : Walker.t;
    epoch : float;
    table : (string * string * bool * float, hop list option) Hashtbl.t;
    mutable queries : int;
    mutable computes : int;
  }

  let create ?(epoch = 0.0) walker =
    { walker; epoch; table = Hashtbl.create 64; queries = 0; computes = 0 }

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
      let r =
        if isls then route_with_isls t.walker ~src ~dst ~time ()
        else route_bent_pipe t.walker ~src ~dst ~time
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
   the last path (the pre-trace [snapshots] behavior). *)
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

let snapshots w ~src ~dst ~isls ~t_end ~step =
  List.filter_map
    (fun (time, entry) ->
      match entry with `Route hops -> Some (time, hops) | `No_route -> None)
    (snapshots_with_gaps w ~src ~dst ~isls ~t_end ~step)

let signature hops =
  List.map (fun h -> Float.round (Leotp_util.Units.m_to_km h.distance)) hops

let total_delay hops =
  List.fold_left (fun acc h -> acc +. Geo.propagation_delay h.distance) 0.0 hops

let hop_count = List.length

let mean_hop_count snaps =
  match snaps with
  | [] -> Float.nan
  | _ ->
    let total = List.fold_left (fun acc (_, h) -> acc + hop_count h) 0 snaps in
    float_of_int total /. float_of_int (List.length snaps)
