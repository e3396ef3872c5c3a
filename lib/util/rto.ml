type t = {
  min_rto : float;
  max_rto : float;
  backoff_factor : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable primed : bool;
  mutable backoff_mult : float;
}

(* The timeout before the first RTT sample, seconds. *)
let initial_rto = 1.0

let create ?(min_rto = 0.2) ?(max_rto = 60.0) ?(backoff_factor = 2.0) () =
  {
    min_rto;
    max_rto;
    backoff_factor;
    srtt = 0.0;
    rttvar = 0.0;
    primed = false;
    backoff_mult = 1.0;
  }

let observe t r =
  if t.primed then begin
    (* RFC 6298 §2.3: beta = 1/4, alpha = 1/8. *)
    t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
    t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
  end
  else begin
    t.srtt <- r;
    t.rttvar <- r /. 2.0;
    t.primed <- true
  end;
  t.backoff_mult <- 1.0

let base_rto t =
  if not t.primed then initial_rto
  else
    Float.min t.max_rto
      (Float.max t.min_rto (t.srtt +. Float.max 0.000_1 (4.0 *. t.rttvar)))

let rto t = Float.min t.max_rto (base_rto t *. t.backoff_mult)
let backoff t = t.backoff_mult <- t.backoff_mult *. t.backoff_factor
let reset_backoff t = t.backoff_mult <- 1.0
let srtt t = if t.primed then Some t.srtt else None

let timeout_floor t ~timeout =
  if t.primed then Float.min (t.srtt +. (4.0 *. t.rttvar)) timeout else 0.0
