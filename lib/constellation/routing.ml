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
  let heap = Leotp_util.Pqueue.create ~cmp in
  dist.(src) <- 0.0;
  Leotp_util.Pqueue.push heap (0.0, src);
  let rec loop () =
    match Leotp_util.Pqueue.pop heap with
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
            Leotp_util.Pqueue.push heap (nd, v)
          end)
        g.adj.(u);
      loop ()
  in
  loop ();
  if Float.is_finite dist.(dst) then begin
    let rec walk acc u = if u = src then src :: acc else walk (u :: acc) prev.(u) in
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
