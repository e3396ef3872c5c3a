let check_args ~p ~hops =
  if p < 0.0 || p >= 1.0 then invalid_arg "Retrans: p must be in [0,1)";
  if hops < 1 then invalid_arg "Retrans: hops must be >= 1"

let e2e_plr ~p ~hops =
  check_args ~p ~hops;
  1.0 -. ((1.0 -. p) ** float_of_int hops)

let e2e_plr_approx ~p ~hops =
  check_args ~p ~hops;
  float_of_int hops *. p

let owd_e2e ~p ~hops ~d =
  (* Eq (2): sum_k (1+2k) * N*d * (1-P) P^k = N*d*(1+P)/(1-P). *)
  let n = float_of_int hops in
  let pp = e2e_plr_approx ~p ~hops in
  n *. d *. (1.0 +. pp) /. (1.0 -. pp)

let owd_hbh ~p ~hops ~d =
  check_args ~p ~hops;
  float_of_int hops *. d *. (1.0 +. p) /. (1.0 -. p)

let throughput_e2e ~p ~hops ~b =
  b *. (1.0 -. e2e_plr_approx ~p ~hops)

let throughput_hbh ~p ~b =
  if p < 0.0 || p >= 1.0 then invalid_arg "Retrans: p must be in [0,1)";
  b *. (1.0 -. p)

let throughput_gain ~p ~hops =
  let np = e2e_plr_approx ~p ~hops in
  (1.0 -. p) /. (1.0 -. np)

let owd_ratio ~p ~hops =
  let np = e2e_plr_approx ~p ~hops in
  (1.0 +. p) *. (1.0 -. np) /. ((1.0 -. p) *. (1.0 +. np))

module Owd_dist = struct
  type t = (float * float) list

  let tail_mass = 1e-9

  (* Geometric number of retransmissions: delay (1+2k)*unit with
     probability (1-q)*q^k, truncated once the remaining mass is
     negligible. *)
  let geometric ~q ~unit =
    if q <= 0.0 then [ (unit, 1.0) ]
    else begin
      let rec go k mass acc =
        let pk = (1.0 -. q) *. (q ** float_of_int k) in
        let acc = (float_of_int (1 + (2 * k)) *. unit, pk) :: acc in
        let mass = mass +. pk in
        if 1.0 -. mass < tail_mass then List.rev acc else go (k + 1) mass acc
      in
      go 0 0.0 []
    end

  let e2e ~p ~hops ~d =
    check_args ~p ~hops;
    let pp = e2e_plr ~p ~hops in
    geometric ~q:pp ~unit:(float_of_int hops *. d)

  (* Exact N-fold convolution of the per-hop distribution.  All delays are
     odd multiples of d, so we work on the integer lattice of d. *)
  let hbh ~p ~hops ~d =
    check_args ~p ~hops;
    let per_hop = geometric ~q:p ~unit:1.0 in
    let per_hop = List.map (fun (x, pr) -> (int_of_float x, pr)) per_hop in
    let max_per_hop =
      List.fold_left (fun acc (x, _) -> max acc x) 0 per_hop
    in
    let size = (max_per_hop * hops) + 1 in
    let dist = Array.make size 0.0 in
    dist.(0) <- 1.0;
    let scratch = Array.make size 0.0 in
    for _ = 1 to hops do
      Array.fill scratch 0 size 0.0;
      for i = 0 to size - 1 do
        if dist.(i) > 0.0 then
          List.iter
            (fun (x, pr) ->
              if i + x < size then scratch.(i + x) <- scratch.(i + x) +. (dist.(i) *. pr))
            per_hop
      done;
      Array.blit scratch 0 dist 0 size
    done;
    let acc = ref [] in
    for i = size - 1 downto 0 do
      if dist.(i) > 0.0 then acc := (float_of_int i *. d, dist.(i)) :: !acc
    done;
    !acc

  let percentile t pct =
    let target = pct /. 100.0 in
    let rec go cdf = function
      | [] -> (match List.rev t with (x, _) :: _ -> x | [] -> Float.nan)
      | (x, pr) :: rest ->
        let cdf = cdf +. pr in
        if cdf >= target then x else go cdf rest
    in
    go 0.0 t

  let mean t = List.fold_left (fun acc (x, pr) -> acc +. (x *. pr)) 0.0 t

  let sample t rng =
    let u = Leotp_util.Rng.float rng 1.0 in
    let rec go cdf = function
      | [] -> (match List.rev t with (x, _) :: _ -> x | [] -> Float.nan)
      | (x, pr) :: rest ->
        let cdf = cdf +. pr in
        if u < cdf then x else go cdf rest
    in
    go 0.0 t

  let monte_carlo ~scheme ~p ~hops ~d ~packets ~seed =
    check_args ~p ~hops;
    let rng = Leotp_util.Rng.create ~seed in
    let stats = Leotp_util.Stats.create () in
    let geometric_tries q =
      (* Number of transmissions until success: 1 + Geometric(q). *)
      let rec go k =
        if Leotp_util.Rng.bernoulli rng q then go (k + 1) else k
      in
      go 0
    in
    for _ = 1 to packets do
      let owd =
        match scheme with
        | `E2e ->
          (* Each attempt crosses the whole path; a loss anywhere forces a
             full-path retry (1 + 2k) * N * d. *)
          let pp = 1.0 -. ((1.0 -. p) ** float_of_int hops) in
          let k = geometric_tries pp in
          float_of_int (1 + (2 * k)) *. float_of_int hops *. d
        | `Hbh ->
          (* Each hop retries independently. *)
          let total = ref 0.0 in
          for _ = 1 to hops do
            let k = geometric_tries p in
            total := !total +. (float_of_int (1 + (2 * k)) *. d)
          done;
          !total
      in
      Leotp_util.Stats.add stats [| owd |] 0
    done;
    stats
end
