type t = {
  mutable rate : float; (* bytes per second *)
  burst : float;
  mutable tokens : float;
  mutable last : float;
}

(* One bucket record per flow/link at setup — not per-packet. *)
let create ~rate ~burst ~now =
  assert (rate >= 0.0 && burst > 0.0);
  ({ rate; burst; tokens = burst; last = now }
  [@leotp.allow "hot-path-may-alloc"])

let refill t now =
  if now > t.last then begin
    t.tokens <- Float.min t.burst (t.tokens +. ((now -. t.last) *. t.rate));
    t.last <- now
  end

let set_rate t ~now src i =
  refill t now;
  t.rate <- Float.max 0.0 src.(i)

(* A little float slack: without it a residual deficit of ~1e-10 tokens
   yields a wait below the clock's resolution and a scheduler livelock. *)
let slack = 1e-6

let try_consume t ~now n =
  refill t now;
  let n = float_of_int n in
  if t.tokens >= n -. slack then begin
    t.tokens <- Float.max 0.0 (t.tokens -. n);
    true
  end
  else false

let time_until t ~now n =
  refill t now;
  let deficit = float_of_int n -. t.tokens in
  if deficit <= slack then 0.0
  else if t.rate <= 0.0 then Float.infinity
  else Float.max 1e-6 (deficit /. t.rate)
