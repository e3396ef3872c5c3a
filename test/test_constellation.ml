(* Tests for the constellation substrate: geometry, orbits, routing
   (Dijkstra vs Floyd-Warshall), and the city-pair path service (the
   flat workspace vs the list-graph service it replaced). *)

open Leotp_constellation

(* ------------------------------------------------------------------ *)
(* Oracles: Floyd-Warshall, and the route service as it was before its
   flat workspace, with its list graph, list-graph Dijkstra and boxed
   binary heap, over [Walker.position] and [Geo.visible]. *)

module Oracle = struct
  module Pqueue = struct
    type 'a t = {
      cmp : 'a -> 'a -> int;
      mutable data : 'a array;
      mutable size : int;
    }

    let create ~cmp = { cmp; data = [||]; size = 0 }
    let is_empty t = t.size = 0

    let grow t x =
      let cap = Array.length t.data in
      if t.size = cap then begin
        let ncap = max 16 (2 * cap) in
        let ndata = Array.make ncap x in
        Array.blit t.data 0 ndata 0 t.size;
        t.data <- ndata
      end

    let rec sift_up t i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if t.cmp t.data.(i) t.data.(parent) < 0 then begin
          let tmp = t.data.(i) in
          t.data.(i) <- t.data.(parent);
          t.data.(parent) <- tmp;
          sift_up t parent
        end
      end

    let push t x =
      grow t x;
      t.data.(t.size) <- x;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)

    let rec sift_down t i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let smallest =
        if l < t.size && t.cmp t.data.(l) t.data.(i) < 0 then l else i
      in
      let smallest =
        if r < t.size && t.cmp t.data.(r) t.data.(smallest) < 0 then r
        else smallest
      in
      if smallest <> i then begin
        let tmp = t.data.(i) in
        t.data.(i) <- t.data.(smallest);
        t.data.(smallest) <- tmp;
        sift_down t smallest
      end

    let pop t =
      if t.size = 0 then None
      else begin
        let root = t.data.(0) in
        t.size <- t.size - 1;
        if t.size > 0 then begin
          t.data.(0) <- t.data.(t.size);
          sift_down t 0
        end;
        Some root
      end
  end

  type graph = { n : int; adj : (int * float) list array }

  let create ~nodes = { n = nodes; adj = Array.make nodes [] }

  let add_edge g a b w =
    assert (a >= 0 && a < g.n && b >= 0 && b < g.n && w >= 0.0);
    let upsert u v =
      let rec go = function
        | [] -> [ (v, w) ]
        | (x, ow) :: rest when x = v -> (x, Float.min ow w) :: rest
        | e :: rest -> e :: go rest
      in
      g.adj.(u) <- go g.adj.(u)
    in
    upsert a b;
    upsert b a

  let dijkstra g ~src ~dst =
    let dist = Array.make g.n Float.infinity in
    let prev = Array.make g.n (-1) in
    let visited = Array.make g.n false in
    let cmp (d1, _) (d2, _) = Float.compare d1 d2 in
    let heap = Pqueue.create ~cmp in
    dist.(src) <- 0.0;
    Pqueue.push heap (0.0, src);
    let rec loop () =
      match Pqueue.pop heap with
      | None -> ()
      | Some (_, u) when visited.(u) -> loop ()
      | Some (_, u) when u = dst -> ()
      | Some (du, u) ->
        visited.(u) <- true;
        List.iter
          (fun (v, w) ->
            let nd = du +. w in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              prev.(v) <- u;
              Pqueue.push heap (nd, v)
            end)
          g.adj.(u);
        loop ()
    in
    loop ();
    if Float.is_finite dist.(dst) then begin
      let rec walk acc u =
        if u = src then src :: acc else walk (u :: acc) prev.(u)
      in
      Some (walk [] dst, dist.(dst))
    end
    else None

  let floyd_warshall g =
    let n = g.n in
    let dist = Array.make_matrix n n Float.infinity in
    let next = Array.make_matrix n n (-1) in
    for i = 0 to n - 1 do
      dist.(i).(i) <- 0.0;
      next.(i).(i) <- i;
      List.iter
        (fun (j, w) ->
          if w < dist.(i).(j) then begin
            dist.(i).(j) <- w;
            next.(i).(j) <- j
          end)
        g.adj.(i)
    done;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if Float.is_finite dist.(i).(k) then
          for j = 0 to n - 1 do
            let alt = dist.(i).(k) +. dist.(k).(j) in
            if alt < dist.(i).(j) then begin
              dist.(i).(j) <- alt;
              next.(i).(j) <- next.(i).(k)
            end
          done
      done
    done;
    (dist, next)

  let fw_path ~next ~src ~dst =
    if next.(src).(dst) = -1 then None
    else begin
      let rec go acc u =
        if u = dst then List.rev (dst :: acc) else go (u :: acc) next.(u).(dst)
      in
      Some (go [] src)
    end

  let ground_pos (c : Cities.t) ~time =
    Geo.ground_position ~lat_deg:c.Cities.lat ~lon_deg:c.Cities.lon ~time

  let route_with_isls w ~src ~dst ~time =
    let open Path_service in
    let n = Walker.count w in
    let g = create ~nodes:(n + 2) in
    let src_node = n and dst_node = n + 1 in
    let pos = Array.init n (fun sat -> Walker.position w ~sat ~time) in
    for sat = 0 to n - 1 do
      List.iter
        (fun other ->
          if other > sat then
            add_edge g sat other (Geo.distance pos.(sat) pos.(other)))
        (Walker.isl_neighbors w ~sat)
    done;
    let gp1 = ground_pos src ~time and gp2 = ground_pos dst ~time in
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
      List.iteri (fun i (d, sat) -> if i < 4 then add_edge g node sat d) sorted
    in
    attach src_node gp1;
    attach dst_node gp2;
    match dijkstra g ~src:src_node ~dst:dst_node with
    | None -> None
    | Some (path, _) ->
      let rec hops = function
        | a :: (b :: _ as rest) ->
          let d =
            let p u =
              if u = src_node then gp1 else if u = dst_node then gp2 else pos.(u)
            in
            Geo.distance (p a) (p b)
          in
          let kind = if a >= n || b >= n then Gsl else Isl in
          { distance = d; kind } :: hops rest
        | _ -> []
      in
      Some (hops path)

  let route_bent_pipe w ~src ~dst ~time =
    let open Path_service in
    let gp1 = ground_pos src ~time and gp2 = ground_pos dst ~time in
    let best = ref None in
    for sat = 0 to Walker.count w - 1 do
      let pos = Walker.position w ~sat ~time in
      if Geo.visible ~ground:gp1 ~sat:pos && Geo.visible ~ground:gp2 ~sat:pos
      then begin
        let d = Geo.distance gp1 pos +. Geo.distance gp2 pos in
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (sat, d)
      end
    done;
    match !best with
    | None -> None
    | Some (sat, _) ->
      let pos = Walker.position w ~sat ~time in
      Some
        [
          { distance = Geo.distance gp1 pos; kind = Gsl };
          { distance = Geo.distance pos gp2; kind = Gsl };
        ]
end

let close ?(eps = 1e-6) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Geo *)

let test_vec_ops () =
  let a = { Geo.x = 1.0; y = 2.0; z = 3.0 } in
  let b = { Geo.x = 4.0; y = 5.0; z = 6.0 } in
  close "dot" 32.0 (Geo.dot a b);
  close "norm" (sqrt 14.0) (Geo.norm a);
  close "distance" (sqrt 27.0) (Geo.distance a b);
  let s = Geo.scale 2.0 a in
  close "scale" 2.0 s.Geo.x

let test_rotations_preserve_norm () =
  let v = { Geo.x = 3.0; y = -1.0; z = 2.0 } in
  close ~eps:1e-9 "rot_z" (Geo.norm v) (Geo.norm (Geo.rot_z 1.234 v));
  close ~eps:1e-9 "rot_x" (Geo.norm v) (Geo.norm (Geo.rot_x 0.77 v))

let test_ground_position () =
  let r = Leotp_util.Units.earth_radius in
  let p = Geo.ground_position ~lat_deg:0.0 ~lon_deg:0.0 ~time:0.0 in
  close ~eps:1.0 "equator x" r p.Geo.x;
  close ~eps:1.0 "equator z" 0.0 p.Geo.z;
  let n = Geo.ground_position ~lat_deg:90.0 ~lon_deg:0.0 ~time:0.0 in
  close ~eps:1.0 "north pole z" r n.Geo.z;
  (* Earth rotation moves the point but keeps its radius and latitude. *)
  let later = Geo.ground_position ~lat_deg:45.0 ~lon_deg:10.0 ~time:3600.0 in
  let init = Geo.ground_position ~lat_deg:45.0 ~lon_deg:10.0 ~time:0.0 in
  close ~eps:1.0 "radius constant" (Geo.norm init) (Geo.norm later);
  close ~eps:1.0 "z constant (latitude)" init.Geo.z later.Geo.z;
  Alcotest.(check bool) "moved in x/y" true (Geo.distance init later > 1000.0)

let test_elevation () =
  let ground = Geo.ground_position ~lat_deg:0.0 ~lon_deg:0.0 ~time:0.0 in
  (* Satellite directly overhead. *)
  let overhead = Geo.scale ((Leotp_util.Units.earth_radius +. 1_150_000.0) /. Leotp_util.Units.earth_radius) ground in
  close ~eps:1e-6 "overhead = 90 deg" 90.0 (Geo.elevation_deg ~ground ~sat:overhead);
  Alcotest.(check bool) "visible" true (Geo.visible ~ground ~sat:overhead);
  (* Satellite on the opposite side of the Earth. *)
  let opposite = Geo.scale (-1.0) overhead in
  Alcotest.(check bool) "not visible" false (Geo.visible ~ground ~sat:opposite)

let test_great_circle () =
  (* Equatorial quarter circumference. *)
  close ~eps:1000.0 "quarter equator"
    (Float.pi /. 2.0 *. Leotp_util.Units.earth_radius)
    (Geo.great_circle_distance ~lat1:0.0 ~lon1:0.0 ~lat2:0.0 ~lon2:90.0);
  (* Beijing-Shanghai ~ 1067 km (the paper quotes 1968 km for BJ-HK). *)
  let bj = Cities.find_exn "Beijing" and sh = Cities.find_exn "Shanghai" in
  let d =
    Geo.great_circle_distance ~lat1:bj.Cities.lat ~lon1:bj.Cities.lon
      ~lat2:sh.Cities.lat ~lon2:sh.Cities.lon
  in
  Alcotest.(check bool)
    (Printf.sprintf "BJ-SH ~1067 km (%.0f)" (d /. 1000.0))
    true
    (d > 1.0e6 && d < 1.15e6)

(* ------------------------------------------------------------------ *)
(* Cities *)

let test_cities () =
  Alcotest.(check int) "100 cities" 100 Cities.count;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (Cities.find name <> None))
    [ "Beijing"; "Shanghai"; "Hong Kong"; "Paris"; "New York" ];
  Alcotest.(check bool) "unknown" true (Cities.find "Atlantis" = None);
  (* Sane coordinates everywhere. *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) (c.Cities.name ^ " lat") true
        (Float.abs c.Cities.lat <= 90.0);
      Alcotest.(check bool) (c.Cities.name ^ " lon") true
        (Float.abs c.Cities.lon <= 180.0))
    Cities.all

(* ------------------------------------------------------------------ *)
(* Walker *)

let w = Walker.create Walker.starlink

let test_walker_counts () =
  Alcotest.(check int) "1600 satellites" 1600 (Walker.count w);
  (* Orbital period for 1150 km is ~107-109 minutes. *)
  let period_min = Walker.orbital_period w /. 60.0 in
  Alcotest.(check bool)
    (Printf.sprintf "period %.1f min" period_min)
    true
    (period_min > 105.0 && period_min < 111.0)

let test_walker_altitude () =
  let expect = Leotp_util.Units.earth_radius +. 1_150_000.0 in
  for sat = 0 to 99 do
    let p = Walker.position w ~sat ~time:(float_of_int sat *. 13.7) in
    Alcotest.(check bool) "altitude constant" true
      (Float.abs (Geo.norm p -. expect) < 1.0)
  done

let test_walker_ids () =
  for id = 0 to Walker.count w - 1 do
    let s = Walker.sat_of_id w id in
    Alcotest.(check int) "id roundtrip" id (Walker.sat_id w s)
  done

let test_walker_motion () =
  (* Satellites move ~7.2 km/s at this altitude. *)
  let p0 = Walker.position w ~sat:0 ~time:0.0 in
  let p1 = Walker.position w ~sat:0 ~time:1.0 in
  let v = Geo.distance p0 p1 in
  Alcotest.(check bool) (Printf.sprintf "speed %.0f m/s" v) true
    (v > 7000.0 && v < 7500.0);
  (* Full period returns to the start. *)
  let p_t = Walker.position w ~sat:0 ~time:(Walker.orbital_period w) in
  Alcotest.(check bool) "periodic" true (Geo.distance p0 p_t < 1000.0)

let test_isl_neighbors () =
  let n = Walker.isl_neighbors w ~sat:0 in
  Alcotest.(check int) "4 neighbours (+grid)" 4 (List.length n);
  Alcotest.(check bool) "distinct" true
    (List.length (List.sort_uniq compare n) = 4);
  (* Neighbour distance is much smaller than a random pair. *)
  let p0 = Walker.position w ~sat:0 ~time:0.0 in
  List.iter
    (fun s ->
      let d = Geo.distance p0 (Walker.position w ~sat:s ~time:0.0) in
      Alcotest.(check bool) "neighbour close" true (d < 3.0e6))
    n

(* The bulk fill, scanned for the nearest satellite above the mask. *)
let test_visibility_search () =
  let bj = Cities.find_exn "Beijing" in
  let ground = Geo.ground_position ~lat_deg:bj.Cities.lat ~lon_deg:bj.Cities.lon ~time:0.0 in
  let n = Walker.count w in
  let x = Array.make n 0.0 and y = Array.make n 0.0 and z = Array.make n 0.0 in
  Walker.positions w ~time:0.0 ~x ~y ~z;
  let best = ref None in
  for sat = 0 to n - 1 do
    let pos = { Geo.x = x.(sat); y = y.(sat); z = z.(sat) } in
    if Geo.visible ~ground ~sat:pos then begin
      let d = Geo.distance ground pos in
      match !best with
      | Some (_, bd) when bd <= d -> ()
      | _ -> best := Some (sat, d)
    end
  done;
  match !best with
  | Some (sat, _) ->
    let pos = Walker.position w ~sat ~time:0.0 in
    Alcotest.(check bool) "above mask" true (Geo.elevation_deg ~ground ~sat:pos >= 25.0)
  | None -> Alcotest.fail "a 1600-sat shell must cover Beijing"

(* ------------------------------------------------------------------ *)
(* Routing *)

(* The node path of the kernel's last search, endpoints included. *)
let kernel_path g ~src ~dst =
  let rec walk acc u = if u = src then src :: acc else walk (u :: acc) (Routing.prev g u) in
  walk [] dst

let test_dijkstra_simple () =
  let g = Routing.create ~capacity:(Array.make 4 3) in
  Routing.add_edge g 0 1 1.0;
  Routing.add_edge g 1 2 1.0;
  Routing.add_edge g 0 2 5.0;
  Routing.add_edge g 2 3 1.0;
  Alcotest.(check bool) "route expected" true (Routing.dijkstra g ~src:0 ~dst:3);
  Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] (kernel_path g ~src:0 ~dst:3);
  close "distance" 3.0 (Routing.dist g 3);
  let g2 = Routing.create ~capacity:(Array.make 3 1) in
  Alcotest.(check bool) "disconnected" false (Routing.dijkstra g2 ~src:0 ~dst:1);
  Routing.add_edge g2 0 1 1.0;
  Alcotest.check_raises "row full" (Invalid_argument "Routing.add_edge: row full")
    (fun () -> Routing.add_edge g2 0 2 1.0)

(* Random graphs, duplicate edges included, through the kernel and the
   list graph: the kernel's distances equal Floyd-Warshall's, and its
   paths equal the list-graph Dijkstra's (same heap order, same ties). *)
let routing_equiv_prop =
  let open QCheck2 in
  Test.make ~name:"dijkstra = floyd-warshall on random graphs" ~count:60
    Gen.(
      pair (int_range 2 12)
        (list_size (int_range 1 40) (triple (int_range 0 11) (int_range 0 11) (float_range 0.1 10.0))))
    (fun (n, edges) ->
      let g = Routing.create ~capacity:(Array.make n (n - 1)) in
      let o = Oracle.create ~nodes:n in
      List.iter
        (fun (a, b, w) ->
          let a = a mod n and b = b mod n in
          if a <> b then begin
            Routing.add_edge g a b w;
            Oracle.add_edge o a b w
          end)
        edges;
      let dist, _ = Oracle.floyd_warshall o in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match (Routing.dijkstra g ~src ~dst, Oracle.dijkstra o ~src ~dst) with
          | true, Some (path, d) ->
            if Float.abs (Routing.dist g dst -. dist.(src).(dst)) > 1e-9
               || Routing.dist g dst <> d
               || kernel_path g ~src ~dst <> path
            then ok := false
          | false, None -> if Float.is_finite dist.(src).(dst) then ok := false
          | _ -> ok := false
        done
      done;
      !ok)

let test_fw_path () =
  let g = Oracle.create ~nodes:3 in
  Oracle.add_edge g 0 1 1.0;
  Oracle.add_edge g 1 2 1.0;
  let _, next = Oracle.floyd_warshall g in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2 ])
    (Oracle.fw_path ~next ~src:0 ~dst:2)

(* The oracle's heap (the one the route service used before its array
   heap). *)
let test_pqueue_order () =
  let q = Oracle.Pqueue.create ~cmp:Int.compare in
  List.iter (Oracle.Pqueue.push q) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Oracle.Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_pqueue_empty () =
  let q = Oracle.Pqueue.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Oracle.Pqueue.is_empty q);
  Alcotest.(check (option int)) "pop none" None (Oracle.Pqueue.pop q)

let pqueue_sort_prop =
  let open QCheck2 in
  Test.make ~name:"pqueue drains sorted" ~count:200
    Gen.(list_size (int_range 0 200) int)
    (fun xs ->
      let q = Oracle.Pqueue.create ~cmp:Int.compare in
      List.iter (Oracle.Pqueue.push q) xs;
      let rec drain acc =
        match Oracle.Pqueue.pop q with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Path service *)

let test_bent_pipe_close_pair () =
  let bj = Cities.find_exn "Beijing" and sh = Cities.find_exn "Shanghai" in
  match Path_service.route_bent_pipe w ~src:bj ~dst:sh ~time:0.0 with
  | Some hops ->
    Alcotest.(check int) "2 GSL hops" 2 (List.length hops);
    List.iter
      (fun h ->
        Alcotest.(check bool) "gsl" true (h.Path_service.kind = Path_service.Gsl))
      hops;
    (* One-way delay must be a handful of ms. *)
    let d = Path_service.total_delay hops in
    Alcotest.(check bool) "delay sane" true (d > 0.005 && d < 0.03)
  | None -> Alcotest.fail "BJ-SH bent pipe expected"

let test_no_bent_pipe_transcontinental () =
  let bj = Cities.find_exn "Beijing" and ny = Cities.find_exn "New York" in
  Alcotest.(check bool) "no common satellite across the Pacific" true
    (Path_service.route_bent_pipe w ~src:bj ~dst:ny ~time:0.0 = None)

let test_isl_route_transcontinental () =
  let bj = Cities.find_exn "Beijing" and ny = Cities.find_exn "New York" in
  match Path_service.route_with_isls w ~src:bj ~dst:ny ~time:0.0 () with
  | Some hops ->
    let k = Path_service.hop_count hops in
    Alcotest.(check bool) (Printf.sprintf "%d hops" k) true (k >= 10 && k <= 24);
    (* Total path length must be at least the great-circle distance. *)
    let total = List.fold_left (fun a h -> a +. h.Path_service.distance) 0.0 hops in
    let gc =
      Geo.great_circle_distance ~lat1:bj.Cities.lat ~lon1:bj.Cities.lon
        ~lat2:ny.Cities.lat ~lon2:ny.Cities.lon
    in
    Alcotest.(check bool) "not shorter than great circle" true (total >= gc *. 0.95);
    (* Route structure: GSL at both ends, ISLs in the middle. *)
    (match (hops, List.rev hops) with
    | first :: _, last :: _ ->
      Alcotest.(check bool) "first is GSL" true (first.Path_service.kind = Path_service.Gsl);
      Alcotest.(check bool) "last is GSL" true (last.Path_service.kind = Path_service.Gsl)
    | _ -> Alcotest.fail "empty route")
  | None -> Alcotest.fail "ISL route expected"

let test_snapshots_change_over_time () =
  let bj = Cities.find_exn "Beijing" and pr = Cities.find_exn "Paris" in
  let routes =
    List.filter_map
      (function _, `Route h -> Some h | _, `No_route -> None)
      (Path_service.snapshots_with_gaps w ~src:bj ~dst:pr ~isls:true
         ~t_end:300.0 ~step:30.0)
  in
  Alcotest.(check bool) "routes found" true (List.length routes >= 8);
  let delays = List.map Path_service.total_delay routes in
  let distinct = List.sort_uniq compare delays in
  Alcotest.(check bool) "orbital motion changes the path" true
    (List.length distinct > 1);
  Alcotest.(check bool) "every route crosses an ISL" true
    (List.for_all (fun h -> Path_service.hop_count h > 2) routes)

(* Regression companion to the trace generator: no-route instants must
   be kept, so that outage windows are visible to the trace. *)
let test_snapshots_with_gaps () =
  let bj = Cities.find_exn "Beijing" and ny = Cities.find_exn "New York" in
  (* A transpacific bent-pipe pair has no common satellite: every sample
     must still be present, as [`No_route]. *)
  let gaps =
    Path_service.snapshots_with_gaps w ~src:bj ~dst:ny ~isls:false
      ~t_end:120.0 ~step:30.0
  in
  Alcotest.(check int) "all instants kept" 5 (List.length gaps);
  Alcotest.(check bool) "all dark" true
    (List.for_all (fun (_, e) -> e = `No_route) gaps);
  (* A pair near the edge of common visibility (HK-Tokyo, ~2900 km)
     mixes [`Route] and [`No_route] over a long enough window... *)
  let hk = Cities.find_exn "Hong Kong" and tk = Cities.find_exn "Tokyo" in
  let mixed =
    Path_service.snapshots_with_gaps w ~src:hk ~dst:tk ~isls:false
      ~t_end:600.0 ~step:1.0
  in
  let dark =
    List.length (List.filter (fun (_, e) -> e = `No_route) mixed)
  in
  Alcotest.(check int) "all instants kept (mixed)" 601 (List.length mixed);
  Alcotest.(check bool) "some dark" true (dark > 0);
  Alcotest.(check bool) "some lit" true (dark < 601)

let test_memo_deduplicates_queries () =
  let bj = Cities.find_exn "Beijing" and pr = Cities.find_exn "Paris" in
  let memo = Path_service.Memo.create ~epoch:30.0 w in
  (* 1000 same-pair queries inside one epoch cost exactly one Dijkstra. *)
  let first = Path_service.Memo.route memo ~src:bj ~dst:pr ~isls:true ~time:1.0 in
  for i = 0 to 998 do
    let t = 1.0 +. (float_of_int i /. 999.0 *. 28.0) in
    let h = Path_service.Memo.route memo ~src:bj ~dst:pr ~isls:true ~time:t in
    if h <> first then Alcotest.fail "memoized result changed within epoch"
  done;
  Alcotest.(check int) "queries counted" 1000 (Path_service.Memo.queries memo);
  Alcotest.(check int) "single compute" 1 (Path_service.Memo.computes memo);
  (* A different pair or a new epoch computes again. *)
  ignore (Path_service.Memo.route memo ~src:pr ~dst:bj ~isls:true ~time:1.0);
  Alcotest.(check int) "new pair computes" 2 (Path_service.Memo.computes memo);
  ignore (Path_service.Memo.route memo ~src:bj ~dst:pr ~isls:true ~time:31.0);
  Alcotest.(check int) "new epoch computes" 3 (Path_service.Memo.computes memo);
  (* The memoized route agrees with the unmemoized service at the
     quantized time. *)
  let direct = Path_service.route_with_isls w ~src:bj ~dst:pr ~time:0.0 () in
  (match (first, direct) with
  | Some a, Some b ->
    Alcotest.(check (float 1e-12))
      "same delay as direct route" (Path_service.total_delay b)
      (Path_service.total_delay a)
  | None, None -> ()
  | _ -> Alcotest.fail "memo and direct disagree on existence");
  Path_service.Memo.clear memo;
  Alcotest.(check int) "clear resets queries" 0 (Path_service.Memo.queries memo)

(* Bit-exact equality of two routes: the same existence, hop count and
   kinds, and every distance equal bit for bit. *)
let same_route a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    List.length a = List.length b
    && List.for_all2
         (fun (h : Path_service.hop) (o : Path_service.hop) ->
           h.kind = o.kind
           && Int64.equal
                (Int64.bits_of_float h.distance)
                (Int64.bits_of_float o.distance))
         a b
  | _ -> false

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The flat service against the list-graph one, on random city pairs at
   random instants over two orbital periods: memo-less, and through one
   memo whose workspace every case reuses.  At each instant the bulk
   fill must equal [Walker.position] bit for bit, and the flat
   visibility test must agree with [Geo.visible] from both cities on
   every satellite. *)
let route_model_prop =
  let open QCheck2 in
  let memo = Path_service.Memo.create w in
  let n = Walker.count w in
  let x = Array.make n 0.0 and y = Array.make n 0.0 and z = Array.make n 0.0 in
  let city = Gen.int_range 0 (Cities.count - 1) in
  Test.make ~name:"routes = list-graph service" ~count:100
    ~print:(fun (i, j, time, isls) ->
      Printf.sprintf "%s -> %s at %h s, isls %b" Cities.all.(i).Cities.name
        Cities.all.(j).Cities.name time isls)
    Gen.(
      quad city city (float_range 0.0 (2.0 *. Walker.orbital_period w)) bool)
    (fun (i, j, time, isls) ->
      let src = Cities.all.(i) and dst = Cities.all.(j) in
      let oracle, direct =
        if isls then
          ( Oracle.route_with_isls w ~src ~dst ~time,
            Path_service.route_with_isls w ~src ~dst ~time () )
        else
          ( Oracle.route_bent_pipe w ~src ~dst ~time,
            Path_service.route_bent_pipe w ~src ~dst ~time )
      in
      let memoized = Path_service.Memo.route memo ~src ~dst ~isls ~time in
      Walker.positions w ~time ~x ~y ~z;
      let grounds = [ Oracle.ground_pos src ~time; Oracle.ground_pos dst ~time ] in
      let flat_ok = ref true in
      for sat = 0 to n - 1 do
        let p = Walker.position w ~sat ~time in
        if
          not
            (same_bits p.Geo.x x.(sat) && same_bits p.Geo.y y.(sat)
           && same_bits p.Geo.z z.(sat))
        then flat_ok := false;
        List.iter
          (fun ground ->
            if
              Path_service.visible ~ground ~x:x.(sat) ~y:y.(sat) ~z:z.(sat)
              <> Geo.visible ~ground ~sat:p
            then flat_ok := false)
          grounds
      done;
      same_route oracle direct && same_route oracle memoized && !flat_ok)

(* A warm memo's compute at a new epoch allocates its answer and its key,
   not a graph: the list-graph service took ~294k words. *)
let test_memo_miss_allocation () =
  let bj = Cities.find_exn "Beijing" and ny = Cities.find_exn "New York" in
  let memo = Path_service.Memo.create ~epoch:5.0 w in
  let route time =
    ignore (Path_service.Memo.route memo ~src:bj ~dst:ny ~isls:true ~time)
  in
  route 0.0;
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  let miss = words (fun () -> route 5.0) -. words ignore in
  Alcotest.(check int) "two computes" 2 (Path_service.Memo.computes memo);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words <= 1000" miss)
    true (miss <= 1000.0)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_constellation"
    [
      ( "geo",
        [
          Alcotest.test_case "vector ops" `Quick test_vec_ops;
          Alcotest.test_case "rotations" `Quick test_rotations_preserve_norm;
          Alcotest.test_case "ground position" `Quick test_ground_position;
          Alcotest.test_case "elevation" `Quick test_elevation;
          Alcotest.test_case "great circle" `Quick test_great_circle;
        ] );
      ("cities", [ Alcotest.test_case "catalogue" `Quick test_cities ]);
      ( "walker",
        [
          Alcotest.test_case "counts/period" `Quick test_walker_counts;
          Alcotest.test_case "altitude" `Quick test_walker_altitude;
          Alcotest.test_case "id roundtrip" `Quick test_walker_ids;
          Alcotest.test_case "motion" `Quick test_walker_motion;
          Alcotest.test_case "isl neighbours" `Quick test_isl_neighbors;
          Alcotest.test_case "visibility" `Quick test_visibility_search;
        ] );
      ( "routing",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra_simple;
          Alcotest.test_case "fw path" `Quick test_fw_path;
          qc routing_equiv_prop;
        ] );
      ( "path_service",
        [
          Alcotest.test_case "bent pipe BJ-SH" `Quick test_bent_pipe_close_pair;
          Alcotest.test_case "no bent pipe BJ-NY" `Quick test_no_bent_pipe_transcontinental;
          Alcotest.test_case "ISL route BJ-NY" `Quick test_isl_route_transcontinental;
          Alcotest.test_case "snapshots vary" `Quick test_snapshots_change_over_time;
          Alcotest.test_case "snapshots with gaps" `Quick
            test_snapshots_with_gaps;
          Alcotest.test_case "memo dedup" `Quick test_memo_deduplicates_queries;
          Alcotest.test_case "memo miss allocation" `Quick
            test_memo_miss_allocation;
          qc route_model_prop;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          qc pqueue_sort_prop;
        ] );
    ]
