type t = {
  mutable times : float array;
  mutable values : float array;
  mutable size : int;
}

let create () = { times = [||]; values = [||]; size = 0 }

let add t ~time src i =
  let v = src.(i) in
  let cap = Array.length t.times in
  if t.size = cap then begin
    let ncap = max 64 (2 * cap) in
    (* doubling growth: amortized O(1), not a steady-state allocation *)
    let nt = (Array.make [@leotp.allow "hot-path-may-alloc"]) ncap 0.0
    and nv = (Array.make [@leotp.allow "hot-path-may-alloc"]) ncap 0.0 in
    Array.blit t.times 0 nt 0 t.size;
    Array.blit t.values 0 nv 0 t.size;
    t.times <- nt;
    t.values <- nv
  end;
  (* Timestamps from a discrete-event simulation are non-decreasing. *)
  assert (t.size = 0 || time >= t.times.(t.size - 1));
  t.times.(t.size) <- time;
  t.values.(t.size) <- v;
  t.size <- t.size + 1

let length t = t.size

(* Plain loops over local float refs, which stay unboxed: a fold over
   an accumulator closure would box every partial sum. *)
let window_sum t ~lo ~hi =
  let acc = ref 0.0 in
  for i = 0 to t.size - 1 do
    if t.times.(i) >= lo && t.times.(i) < hi then acc := !acc +. t.values.(i)
  done;
  !acc

let bucketize t ~width ~t_end =
  let nbuckets = int_of_float (Float.ceil (t_end /. width)) in
  let sums = Array.make (max nbuckets 0) 0.0 in
  for i = 0 to t.size - 1 do
    let b = int_of_float (t.times.(i) /. width) in
    if b >= 0 && b < nbuckets then sums.(b) <- sums.(b) +. t.values.(i)
  done;
  List.mapi (fun b s -> (float_of_int b *. width, s)) (Array.to_list sums)

let rate_series t ~width ~t_end =
  List.map (fun (ts, s) -> (ts, s /. width)) (bucketize t ~width ~t_end)
