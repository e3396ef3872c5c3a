type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    (* doubling growth: amortized O(1), not a steady-state allocation *)
    let ndata = (Array.make [@leotp.allow "hot-path-may-alloc"]) ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

(* The sift loops recurse on indices instead of using while+ref: both
   run per engine event, and a local [ref] is a minor-heap cell. *)
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

let peek t = if t.size = 0 then None else Some t.data.(0)

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.cmp t.data.(l) t.data.(i) < 0 then l else i in
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

(* Compaction: runs once per batch of cancellations (the caller
   amortizes), so its scratch cells are off the per-event budget. *)
let filter_in_place t ~keep =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let x = t.data.(i) in
    if keep x then begin
      t.data.(!j) <- x;
      incr j
    end
  done;
  t.size <- !j;
  (* Reallocate to drop references to removed elements (and excess
     capacity) — the point of compaction is releasing what the heap was
     retaining. *)
  if !j = 0 then t.data <- [||]
  else begin
    let cap = ref 16 in
    while !cap < !j do
      cap := 2 * !cap
    done;
    let ndata = Array.make !cap t.data.(0) in
    Array.blit t.data 0 ndata 0 !j;
    t.data <- ndata
  end;
  (* Floyd heapify: surviving elements kept array order, not heap order. *)
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done
[@@leotp.allow "hot-path-may-alloc"]
