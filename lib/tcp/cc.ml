type ack_info = {
  now : float;
  acked_bytes : int;
  rtt_sample : float option;
  bw_sample : float option;
  inflight : int;
}

type window = {
  mss : float;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable pacing_rate : float;
}

type t = {
  name : string;
  window : window;
  on_ack : ack_info -> unit;
  on_loss : now:float -> inflight:int -> unit;
  on_rto : now:float -> unit;
  phase : unit -> string;
}

type algo = Newreno | Cubic | Hybla | Westwood | Vegas | Bbr | Pcc

let all = [ Newreno; Cubic; Hybla; Westwood; Vegas; Bbr; Pcc ]

let algo_name = function
  | Newreno -> "newreno"
  | Cubic -> "cubic"
  | Hybla -> "hybla"
  | Westwood -> "westwood"
  | Vegas -> "vegas"
  | Bbr -> "bbr"
  | Pcc -> "pcc"

let algo_of_name name =
  List.find_opt (fun algo -> String.equal (algo_name algo) name) all

let fmss mss = float_of_int mss
let initial_window mss = 10.0 *. fmss mss
let min_window mss = 2.0 *. fmss mss

let window ~mss =
  {
    mss = fmss mss;
    cwnd = initial_window mss;
    ssthresh = Float.infinity;
    pacing_rate = 0.0;
  }

let halve w = w.ssthresh <- Float.max (w.cwnd /. 2.0) (2.0 *. w.mss)

let collapse w =
  halve w;
  w.cwnd <- w.mss

let ss_or_ca w = if w.cwnd < w.ssthresh then "ss" else "ca"
