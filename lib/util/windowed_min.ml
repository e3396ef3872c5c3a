type kind = Min | Max

(* Monotonic wedge, front = best (oldest surviving), back = newest.
   Values are increasing for Min / decreasing for Max, so the extremum
   over the window is always the front element.  The wedge is a ring of
   [len] (timestamp, value) pairs from [head], in two float arrays whose
   length is zero or a power of two. *)
type t = {
  kind : kind;
  mutable window : float;
  mutable ts : float array;
  mutable vs : float array;
  mutable head : int;
  mutable len : int;
}

(* one filter per controller, made when a flow is first seen *)
let create kind window =
  ({ kind; window; ts = [||]; vs = [||]; head = 0; len = 0 }
  [@leotp.allow "hot-path-may-alloc"])

let create_min ~window = create Min window
let create_max ~window = create Max window
let set_window t w = t.window <- w

let slot t i = (t.head + i) land (Array.length t.ts - 1)

let grow t =
  let cap = max 8 (2 * Array.length t.ts) in
  let ts = Array.make cap 0.0 in
  let vs = Array.make cap 0.0 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    ts.(i) <- t.ts.(j);
    vs.(i) <- t.vs.(j)
  done;
  t.ts <- ts;
  t.vs <- vs;
  t.head <- 0
(* doubling growth: the ring holds the samples of one window *)
[@@leotp.allow "hot-path-may-alloc"]

let rec expire t now =
  if t.len > 0 && t.ts.(t.head) < now -. t.window then begin
    t.head <- slot t 1;
    t.len <- t.len - 1;
    expire t now
  end

(* Drops the newest samples that [src.(j)] dominates ([<=] for Min,
   [>=] for Max).  The sample stays in its slot: a float argument to
   this recursive function would be boxed. *)
let rec strip t src j =
  if t.len > 0 then begin
    let v = src.(j) and last = t.vs.(slot t (t.len - 1)) in
    if match t.kind with Min -> v <= last | Max -> v >= last then begin
      t.len <- t.len - 1;
      strip t src j
    end
  end

let add t ~now src j =
  strip t src j;
  let v = src.(j) in
  if t.len = Array.length t.ts then grow t;
  let i = slot t t.len in
  t.ts.(i) <- now;
  t.vs.(i) <- v;
  t.len <- t.len + 1;
  expire t now

let get_or t ~now ~default =
  expire t now;
  if t.len = 0 then default else t.vs.(t.head)

let get_into t ~now dst i =
  expire t now;
  if t.len = 0 then false
  else begin
    dst.(i) <- t.vs.(t.head);
    true
  end
