type t = {
  mutable samples : float array;
  mutable size : int;
  mutable sorted : float array option;
}

let create () = { samples = [||]; size = 0; sorted = None }

let add t src i =
  let x = src.(i) in
  let cap = Array.length t.samples in
  if t.size = cap then begin
    (* doubling growth: amortized O(1), not a steady-state allocation *)
    let ndata =
      (Array.make [@leotp.allow "hot-path-may-alloc"])
        (Stdlib.max 64 (2 * cap)) 0.0
    in
    Array.blit t.samples 0 ndata 0 t.size;
    t.samples <- ndata
  end;
  t.samples.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- None

let count t = t.size
let is_empty t = t.size = 0

(* [Array.sort Float.compare]: the stdlib's heap sort, step for step,
   specialised to a float array, so equal keys (±0.0, NaNs) land where
   it puts them.  The generic sort boxes every element it reads; here
   the element being sifted waits in a one-slot array [e] (a float
   argument would be boxed), and the bottom of the heap is a [-1] son
   where the stdlib raises [Bottom i]. *)

(* The largest of [i]'s three sons below [l], or -1 when it has none. *)
let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
    if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
  end
  else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickledown (a : float array) (e : float array) l i =
  let j = maxson a l i in
  if j >= 0 && Float.compare a.(j) e.(0) > 0 then begin
    a.(i) <- a.(j);
    trickledown a e l j
  end
  else a.(i) <- e.(0)

let rec bubble (a : float array) l i =
  let j = maxson a l i in
  if j < 0 then i
  else begin
    a.(i) <- a.(j);
    bubble a l j
  end

let rec trickleup (a : float array) (e : float array) i =
  let father = (i - 1) / 3 in
  assert (i <> father);
  if Float.compare a.(father) e.(0) < 0 then begin
    a.(i) <- a.(father);
    if father > 0 then trickleup a e father else a.(0) <- e.(0)
  end
  else a.(i) <- e.(0)

let sort_floats (a : float array) =
  let e = [| 0.0 |] in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    e.(0) <- a.(i);
    trickledown a e l i
  done;
  for i = l - 1 downto 2 do
    e.(0) <- a.(i);
    a.(i) <- a.(0);
    trickleup a e (bubble a i 0)
  done;
  if l > 1 then begin
    e.(0) <- a.(1);
    a.(1) <- a.(0);
    a.(0) <- e.(0)
  end

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.samples 0 t.size in
    sort_floats a;
    t.sorted <- Some a;
    a

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.size - 1 do
    acc := !acc +. t.samples.(i)
  done;
  !acc

let mean t = if t.size = 0 then Float.nan else total t /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let acc = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = t.samples.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int (t.size - 1))
  end

let min t = if t.size = 0 then Float.nan else (sorted t).(0)
let max t = if t.size = 0 then Float.nan else (sorted t).(t.size - 1)

let percentile t p =
  if t.size = 0 then Float.nan
  else begin
    let a = sorted t in
    let p = Float.min 100.0 (Float.max 0.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then a.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
    end
  end

let median t = percentile t 50.0

let cdf_points ?(points = 100) t =
  if t.size = 0 then []
  else begin
    let a = sorted t in
    let n = t.size in
    let step = Stdlib.max 1 (n / points) in
    let rec collect i acc =
      if i >= n then List.rev ((a.(n - 1), 1.0) :: acc)
      else collect (i + step) ((a.(i), float_of_int (i + 1) /. float_of_int n) :: acc)
    in
    collect 0 []
  end

let excess t ~floor =
  let samples = Array.make t.size 0.0 in
  for i = 0 to t.size - 1 do
    samples.(i) <- Float.max 0.0 (t.samples.(i) -. floor)
  done;
  { samples; size = t.size; sorted = None }

let jain_index xs =
  match xs with
  | [] -> Float.nan
  | _ ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if Float.equal s2 0.0 then 1.0 else s *. s /. (n *. s2)
