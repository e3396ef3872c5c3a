type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x1e07; 0x9e3779b9 |]

let substream t name =
  (* Derive a child seed from the parent stream and the name hash; drawing
     from [t] here is deterministic in creation order, so substreams must be
     created eagerly at setup time (which all callers do). *)
  let h = Hashtbl.hash name in
  let s = Random.State.bits t in
  Random.State.make [| s; h; s lxor h; 0x5e07 land max_int |]

let float t bound = Random.State.float t bound
let int t bound = Random.State.int t bound
let bool t = Random.State.bool t
(* [Random.State.float t 1.0 < p] without its boxed result: the
   stdlib's [rawfloat] recurses, so it is never inlined.  The same
   draws (53 bits, redrawn on 0) give the same unit float. *)
let rec draw_below t p =
  let n = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 < p else draw_below t p

let bernoulli t p = p > 0. && draw_below t p
let uniform t lo hi = lo +. Random.State.float t (hi -. lo)

let exponential t ~mean =
  let u = 1.0 -. Random.State.float t 1.0 in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. Random.State.float t 1.0 in
  let u2 = Random.State.float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
