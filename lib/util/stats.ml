type t = {
  mutable samples : float array;
  mutable size : int;
  mutable sorted : float array option;
}

let create () = { samples = [||]; size = 0; sorted = None }

let add t x =
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

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.samples 0 t.size in
    Array.sort Float.compare a;
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

let to_list t = Array.to_list (Array.sub t.samples 0 t.size)

let jain_index xs =
  match xs with
  | [] -> Float.nan
  | _ ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if Float.equal s2 0.0 then 1.0 else s *. s /. (n *. s2)

module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable primed : bool }

  (* One record per estimator at setup — not per-sample. *)
  let create ~alpha =
    assert (alpha > 0.0 && alpha <= 1.0);
    ({ alpha; value = Float.nan; primed = false }
    [@leotp.allow "hot-path-may-alloc"])

  let add t x =
    if t.primed then t.value <- ((1.0 -. t.alpha) *. t.value) +. (t.alpha *. x)
    else begin
      t.value <- x;
      t.primed <- true
    end

  let value t = t.value
  let value_or t ~default = if t.primed then t.value else default
end
