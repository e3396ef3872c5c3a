(* Tests for the constellation substrate: geometry, orbits, routing
   (Dijkstra vs Floyd-Warshall), and the city-pair path service. *)

open Leotp_constellation

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

let test_visibility_search () =
  let bj = Cities.find_exn "Beijing" in
  let ground = Geo.ground_position ~lat_deg:bj.Cities.lat ~lon_deg:bj.Cities.lon ~time:0.0 in
  match Walker.nearest_visible w ~ground ~time:0.0 with
  | Some sat ->
    let pos = Walker.position w ~sat ~time:0.0 in
    Alcotest.(check bool) "above mask" true (Geo.elevation_deg ~ground ~sat:pos >= 25.0)
  | None -> Alcotest.fail "a 1600-sat shell must cover Beijing"

(* ------------------------------------------------------------------ *)
(* Routing *)

let test_dijkstra_simple () =
  let g = Routing.create ~nodes:4 in
  Routing.add_edge g 0 1 1.0;
  Routing.add_edge g 1 2 1.0;
  Routing.add_edge g 0 2 5.0;
  Routing.add_edge g 2 3 1.0;
  (match Routing.dijkstra g ~src:0 ~dst:3 with
  | Some (path, d) ->
    Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] path;
    close "distance" 3.0 d
  | None -> Alcotest.fail "route expected");
  let g2 = Routing.create ~nodes:2 in
  Alcotest.(check bool) "disconnected" true (Routing.dijkstra g2 ~src:0 ~dst:1 = None)

let routing_equiv_prop =
  let open QCheck2 in
  Test.make ~name:"dijkstra = floyd-warshall on random graphs" ~count:60
    Gen.(
      pair (int_range 2 12)
        (list_size (int_range 1 40) (triple (int_range 0 11) (int_range 0 11) (float_range 0.1 10.0))))
    (fun (n, edges) ->
      let g = Routing.create ~nodes:n in
      List.iter
        (fun (a, b, w) ->
          let a = a mod n and b = b mod n in
          if a <> b then Routing.add_edge g a b w)
        edges;
      let dist, _ = Routing.floyd_warshall g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match Routing.dijkstra g ~src ~dst with
          | Some (_, d) ->
            if Float.abs (d -. dist.(src).(dst)) > 1e-9 then ok := false
          | None -> if Float.is_finite dist.(src).(dst) then ok := false
        done
      done;
      !ok)

let test_fw_path () =
  let g = Routing.create ~nodes:3 in
  Routing.add_edge g 0 1 1.0;
  Routing.add_edge g 1 2 1.0;
  let _, next = Routing.floyd_warshall g in
  Alcotest.(check (option (list int))) "path" (Some [ 0; 1; 2 ])
    (Routing.fw_path ~next ~src:0 ~dst:2)

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
  let snaps = Path_service.snapshots w ~src:bj ~dst:pr ~isls:true ~t_end:300.0 ~step:30.0 in
  Alcotest.(check bool) "routes found" true (List.length snaps >= 8);
  let delays = List.map (fun (_, h) -> Path_service.total_delay h) snaps in
  let distinct = List.sort_uniq compare delays in
  Alcotest.(check bool) "orbital motion changes the path" true
    (List.length distinct > 1);
  Alcotest.(check bool) "mean hops sane" true
    (Path_service.mean_hop_count snaps > 2.0)

(* Regression companion to the trace generator: [snapshots] silently
   drops no-route instants, so outage windows were invisible.  The
   gap-preserving variant must keep them, and filtering its [`Route]
   entries must reproduce the old behaviour exactly. *)
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
  Alcotest.(check int) "plain snapshots drop them all" 0
    (List.length
       (Path_service.snapshots w ~src:bj ~dst:ny ~isls:false ~t_end:120.0
          ~step:30.0));
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
  Alcotest.(check bool) "some lit" true (dark < 601);
  (* ...and filtering the gaps reproduces [snapshots] exactly. *)
  let filtered =
    List.filter_map
      (fun (t, e) -> match e with `Route h -> Some (t, h) | `No_route -> None)
      mixed
  in
  let plain =
    Path_service.snapshots w ~src:hk ~dst:tk ~isls:false ~t_end:600.0
      ~step:1.0
  in
  Alcotest.(check int) "filtered = plain (length)" (List.length plain)
    (List.length filtered);
  List.iter2
    (fun (t1, h1) (t2, h2) ->
      Alcotest.(check bool) "same instant" true (Float.equal t1 t2);
      Alcotest.(check bool) "same route" true
        (List.equal Float.equal
           (Path_service.signature h1)
           (Path_service.signature h2)))
    filtered plain

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
        ] );
    ]
