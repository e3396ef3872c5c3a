(** Time-varying link bandwidth models (bytes/second).

    [Square] reproduces the paper's bottleneck fluctuation (a square wave
    with fixed period and amplitude, §II-A and §V-B).  Rates that follow
    a recorded timeline, such as the GSL handover "V" curve (§V-C), are
    [Constant]s that a replayed path trace swaps in at each record. *)

type t =
  | Constant of float
  | Square of { mean : float; amplitude : float; period : float }
      (** [mean + amplitude] for the first half of each period, then
          [mean - amplitude]. *)

let constant_mbps mbps = Constant (Leotp_util.Units.mbps_to_bytes_per_sec mbps)

let square_mbps ~mean ~amplitude ~period =
  Square
    {
      mean = Leotp_util.Units.mbps_to_bytes_per_sec mean;
      amplitude = Leotp_util.Units.mbps_to_bytes_per_sec amplitude;
      period;
    }

(* Nested matches, not [match (a, b)]: the tupled scrutinee would be a
   minor-heap allocation on the reconfiguration timer path. *)
let approx_equal ~epsilon a b =
  match a with
  | Constant x -> (
    match b with
    | Constant y -> Float.abs (x -. y) <= epsilon
    | Square _ -> false)
  | Square p -> (
    match b with
    | Square q ->
      Float.abs (p.mean -. q.mean) <= epsilon
      && Float.abs (p.amplitude -. q.amplitude) <= epsilon
      && Float.equal p.period q.period
    | Constant _ -> false)

let at t time =
  match t with
  | Constant r -> r
  | Square { mean; amplitude; period } ->
    let phase = Float.rem time period in
    if phase < period /. 2.0 then mean +. amplitude else mean -. amplitude
