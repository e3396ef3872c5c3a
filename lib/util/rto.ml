(* The estimator's floats, stored flat: [observe] writes three of them
   per RTT sample, and a float field of a mixed record would box each
   write. *)
type est = {
  min_rto : float;
  max_rto : float;
  backoff_factor : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable backoff_mult : float;
}

type t = { e : est; mutable primed : bool }

(* The timeout before the first RTT sample, seconds. *)
let initial_rto = 1.0

let create ?(min_rto = 0.2) ?(max_rto = 60.0) ?(backoff_factor = 2.0) () =
  {
    e =
      {
        min_rto;
        max_rto;
        backoff_factor;
        srtt = 0.0;
        rttvar = 0.0;
        backoff_mult = 1.0;
      };
    primed = false;
  }

let observe t ~now ~sent =
  let e = t.e in
  let r = now -. sent in
  if t.primed then begin
    (* RFC 6298 §2.3: beta = 1/4, alpha = 1/8. *)
    e.rttvar <- (0.75 *. e.rttvar) +. (0.25 *. Float.abs (e.srtt -. r));
    e.srtt <- (0.875 *. e.srtt) +. (0.125 *. r)
  end
  else begin
    e.srtt <- r;
    e.rttvar <- r /. 2.0;
    t.primed <- true
  end;
  e.backoff_mult <- 1.0

(* Inlined into every reader below, so no float they compute crosses a
   call. *)
let[@inline] base_rto t =
  let e = t.e in
  if not t.primed then initial_rto
  else
    Float.min e.max_rto
      (Float.max e.min_rto (e.srtt +. Float.max 0.000_1 (4.0 *. e.rttvar)))

let[@inline] rto t = Float.min t.e.max_rto (base_rto t *. t.e.backoff_mult)
let backoff t = t.e.backoff_mult <- t.e.backoff_mult *. t.e.backoff_factor
let reset_backoff t = t.e.backoff_mult <- 1.0
let srtt t = if t.primed then Some t.e.srtt else None

let[@inline] timeout_floor t ~timeout =
  if t.primed then Float.min (t.e.srtt +. (4.0 *. t.e.rttvar)) timeout
  else 0.0

let stamp t ~now (times : Seg_store.times) =
  let timeout = rto t in
  times.due <- now +. timeout;
  times.floor <- timeout_floor t ~timeout
