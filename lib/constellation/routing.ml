type t = {
  first : int array;  (** row starts; [first.(n)] = slot count *)
  degree : int array;
  nbr : int array;
  weight : float array;
  dist : float array;
  prev : int array;
  visited : Bytes.t;
  mutable heap_key : float array;
  mutable heap_node : int array;
  mutable heap_size : int;
}

let create ~capacity =
  let n = Array.length capacity in
  let first = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    if capacity.(u) < 0 then invalid_arg "Routing.create";
    first.(u + 1) <- first.(u) + capacity.(u)
  done;
  let slots = first.(n) in
  {
    first;
    degree = Array.make n 0;
    nbr = Array.make slots 0;
    weight = Array.make slots 0.0;
    dist = Array.make n Float.infinity;
    prev = Array.make n (-1);
    visited = Bytes.make n '\000';
    heap_key = Array.make (max 16 n) 0.0;
    heap_node = Array.make (max 16 n) 0;
    heap_size = 0;
  }

let nodes g = Array.length g.degree
let degree g u = g.degree.(u)
let first g u = g.first.(u)
let neighbours g = g.nbr
let weights g = g.weight
let dist g u = g.dist.(u)
let prev g u = g.prev.(u)
let truncate g u k = if k < g.degree.(u) then g.degree.(u) <- max 0 k

(* The first of the [d] slots from [base] holding [v], or [d]. *)
let rec find g ~base ~d v i =
  if i = d || g.nbr.(base + i) = v then i else find g ~base ~d v (i + 1)

(* One direction of [add_edge]: the slot already holding [v] keeps the
   smaller weight, otherwise [v] goes after the row's earlier entries. *)
let upsert g u v w =
  let base = g.first.(u) and d = g.degree.(u) in
  let i = find g ~base ~d v 0 in
  if i < d then (if w < g.weight.(base + i) then g.weight.(base + i) <- w)
  else if base + d = g.first.(u + 1) then invalid_arg "Routing.add_edge: row full"
  else begin
    g.nbr.(base + d) <- v;
    g.weight.(base + d) <- w;
    g.degree.(u) <- d + 1
  end

let add_edge g a b w =
  let n = nodes g in
  if a < 0 || a >= n || b < 0 || b >= n || not (w >= 0.0) then
    invalid_arg "Routing.add_edge";
  upsert g a b w;
  upsert g b a w

(* The heap sifts as a textbook binary min-heap with strict [<] on keys
   (a parent moves only for a strictly smaller child, the left child
   wins ties), so equal keys pop in one fixed order and every path is
   reproducible.  Keys and nodes sit in parallel arrays; a node is
   pushed with its current distance as key. *)
let swap g i j =
  let k = g.heap_key.(i) and v = g.heap_node.(i) in
  g.heap_key.(i) <- g.heap_key.(j);
  g.heap_node.(i) <- g.heap_node.(j);
  g.heap_key.(j) <- k;
  g.heap_node.(j) <- v

let rec sift_up g i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if g.heap_key.(i) < g.heap_key.(parent) then begin
      swap g i parent;
      sift_up g parent
    end
  end

let rec sift_down g i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < g.heap_size && g.heap_key.(l) < g.heap_key.(i) then l else i
  in
  let smallest =
    if r < g.heap_size && g.heap_key.(r) < g.heap_key.(smallest) then r
    else smallest
  in
  if smallest <> i then begin
    swap g i smallest;
    sift_down g smallest
  end

(* Doubling, so a search allocates only while its frontier outgrows
   every earlier one. *)
let grow g =
  let cap = Array.length g.heap_node in
  let key = Array.make (2 * cap) 0.0 and node = Array.make (2 * cap) 0 in
  Array.blit g.heap_key 0 key 0 cap;
  Array.blit g.heap_node 0 node 0 cap;
  g.heap_key <- key;
  g.heap_node <- node

let push g v =
  if g.heap_size = Array.length g.heap_node then grow g;
  let i = g.heap_size in
  g.heap_key.(i) <- g.dist.(v);
  g.heap_node.(i) <- v;
  g.heap_size <- i + 1;
  sift_up g i

let pop g =
  let root = g.heap_node.(0) in
  g.heap_size <- g.heap_size - 1;
  if g.heap_size > 0 then begin
    g.heap_key.(0) <- g.heap_key.(g.heap_size);
    g.heap_node.(0) <- g.heap_node.(g.heap_size);
    sift_down g 0
  end;
  root

(* Lazy deletion: a node is pushed again on each improvement, and a
   popped node already settled is skipped.  Weights are non-negative, so
   the first pop of a node carries its final distance, and relaxing it
   reads [dist.(u)]. *)
let rec settle g ~dst =
  if g.heap_size > 0 then begin
    let u = pop g in
    if Bytes.get g.visited u <> '\000' then settle g ~dst
    else if u <> dst then begin
      Bytes.set g.visited u '\001';
      let du = g.dist.(u) and base = g.first.(u) in
      for e = base to base + g.degree.(u) - 1 do
        let v = g.nbr.(e) in
        let nd = du +. g.weight.(e) in
        if nd < g.dist.(v) then begin
          g.dist.(v) <- nd;
          g.prev.(v) <- u;
          push g v
        end
      done;
      settle g ~dst
    end
  end

let dijkstra g ~src ~dst =
  let n = nodes g in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Routing.dijkstra";
  Array.fill g.dist 0 n Float.infinity;
  Array.fill g.prev 0 n (-1);
  Bytes.fill g.visited 0 n '\000';
  g.heap_size <- 0;
  g.dist.(src) <- 0.0;
  push g src;
  settle g ~dst;
  g.dist.(dst) < Float.infinity
