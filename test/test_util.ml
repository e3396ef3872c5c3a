(* Tests for leotp_util: interval sets, heap, stats, RTO, token bucket,
   windowed filters, RNG, time series. *)

open Leotp_util

let check_float = Alcotest.(check (float 1e-9))
let check_floats ?(eps = 1e-9) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Interval_set *)

(* The intervals of the set cut at [from], read as the set's users read
   them: the first point present, then the first missing above it. *)
let rec intervals ?(from = min_int) t =
  let lo = Interval_set.first_present t ~lo:from in
  if lo = max_int then []
  else
    let hi = Interval_set.first_missing t ~lo in
    (lo, hi) :: intervals ~from:hi t

let ivs l =
  let t = Interval_set.create () in
  List.iter (fun (lo, hi) -> ignore (Interval_set.add t ~lo ~hi)) l;
  t

let check_intervals = Alcotest.(check (list (pair int int)))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let add t lo hi = Interval_set.add t ~lo ~hi
let covers t lo hi = Interval_set.covers t ~lo ~hi
let first_missing t lo = Interval_set.first_missing t ~lo

let test_ivs_empty () =
  let t = Interval_set.create () in
  check_int "cardinal" 0 (Interval_set.cardinal t);
  check_bool "covers" false (covers t 3 4);
  check_bool "covers empty range" true (covers t 3 3);
  check_int "first missing" 3 (first_missing t 3);
  check_intervals "no intervals" [] (intervals t)

let test_ivs_add_merge () =
  let t = ivs [ (0, 10); (20, 30) ] in
  check_intervals "disjoint" [ (0, 10); (20, 30) ] (intervals t);
  check_int "abut adds the gap" 10 (add t 10 20);
  check_intervals "abutting merge" [ (0, 30) ] (intervals t);
  let t = ivs [ (0, 10) ] in
  check_int "overlap adds the rest" 15 (add t 5 25);
  check_intervals "overlap merge" [ (0, 25) ] (intervals t);
  check_int "inside adds nothing" 0 (add t 3 7);
  let t = ivs [ (0, 5); (10, 15); (20, 25) ] in
  check_int "absorb several adds the gaps" 10 (add t 2 22);
  check_intervals "absorb several" [ (0, 25) ] (intervals t);
  check_int "cardinal" 25 (Interval_set.cardinal t);
  let t = ivs [ (30, 40); (0, 10); (20, 25) ] in
  check_intervals "inserted in order"
    [ (0, 10); (20, 25); (30, 40) ]
    (intervals t)

let test_ivs_add_empty_range () =
  let t = ivs [ (0, 10) ] in
  check_int "empty range" 0 (add t 20 20);
  check_int "inverted range" 0 (add t 27 23);
  check_intervals "unchanged" [ (0, 10) ] (intervals t);
  check_int "cardinal" 10 (Interval_set.cardinal t)

let test_ivs_queries () =
  let t = ivs [ (10, 20); (30, 40) ] in
  check_bool "covers" true (covers t 12 18);
  check_bool "covers exact" true (covers t 10 20);
  check_bool "covers gap" false (covers t 15 35);
  check_bool "covers below" false (covers t 5 12);
  check_bool "covers above" false (covers t 38 41);
  check_int "cardinal" 20 (Interval_set.cardinal t);
  check_int "first missing" 20 (first_missing t 10);
  check_int "first missing in gap" 25 (first_missing t 25);
  check_int "first missing below" 0 (first_missing t 0);
  check_int "first missing at end" 40 (first_missing t 39)

(* [clear] empties a set whose array has grown; the set then works as a
   fresh one. *)
let test_ivs_clear () =
  let t = ivs (List.init 20 (fun i -> (10 * i, (10 * i) + 5))) in
  check_int "before" 100 (Interval_set.cardinal t);
  Interval_set.clear t;
  check_int "cardinal" 0 (Interval_set.cardinal t);
  check_intervals "no intervals" [] (intervals t);
  check_bool "covers" false (covers t 0 5);
  check_int "first missing" 0 (first_missing t 0);
  check_int "re-add" 7 (add t 3 10);
  check_intervals "after re-add" [ (3, 10) ] (intervals t)

(* Bitmap model for the properties below: point [i] of [0, model_size)
   is in the set iff [model.(i)]. *)
let model_size = 260

(* Set [lo, hi) in [model]; the number of points newly set. *)
let model_add model lo hi =
  let fresh = ref 0 in
  for i = lo to hi - 1 do
    if not model.(i) then incr fresh;
    model.(i) <- true
  done;
  !fresh

let model_cardinal model =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model

(* The maximal runs of [lo, hi) whose points are all [v] in [model]. *)
let model_runs model ~v ~lo ~hi =
  let acc = ref [] and start = ref (-1) in
  for i = lo to hi - 1 do
    if model.(i) = v && !start < 0 then start := i;
    if model.(i) <> v && !start >= 0 then begin
      acc := (!start, i) :: !acc;
      start := -1
    end
  done;
  if !start >= 0 then acc := (!start, hi) :: !acc;
  List.rev !acc

let model_covers model lo hi = model_runs model ~v:false ~lo ~hi = []

(* A range [(lo, len)] to add.  Short (empty and inverted included) and
   long ranges mix, so sets grow past the initial array and runs of
   spans merge. *)
let ivs_range =
  QCheck2.Gen.(
    pair (int_range 0 199) (oneof [ int_range (-2) 4; int_range 0 60 ]))

(* The uncovered runs of [lo, hi), read off the walked intervals. *)
let gaps t ~lo ~hi =
  let pos, acc =
    List.fold_left
      (fun (pos, acc) (a, b) ->
        let a = max a lo and b = min b hi in
        if a >= b then (pos, acc)
        else (b, if a > pos then (pos, a) :: acc else acc))
      (lo, []) (intervals t)
  in
  List.rev (if pos < hi then (pos, hi) :: acc else acc)

(* Property: after every add of a random sequence, [add]'s return,
   [cardinal], a random [covers] query, [first_missing] and
   [first_present] from a random point, the walked intervals and the
   walk from that point (the covered runs cut there) all agree with the
   bitmap model. *)
let ivs_model_prop =
  let open QCheck2 in
  let step =
    Gen.(triple ivs_range (int_range 0 (model_size - 1)) (int_range 0 30))
  in
  Test.make ~name:"interval_set matches bitmap model" ~count:500
    Gen.(list_size (int_range 0 60) step)
    (fun steps ->
      let model = Array.make model_size false in
      let t = Interval_set.create () in
      List.for_all
        (fun ((lo, len), q, qlen) ->
          let hi = lo + len in
          let fresh = model_add model lo hi in
          let added = add t lo hi in
          let qhi = min model_size (q + qlen) in
          let missing = ref q in
          while !missing < model_size && model.(!missing) do
            incr missing
          done;
          let present = ref q in
          while !present < model_size && not model.(!present) do
            incr present
          done;
          let runs_from lo = model_runs model ~v:true ~lo ~hi:model_size in
          added = fresh
          && Interval_set.cardinal t = model_cardinal model
          && covers t q qhi = model_covers model q qhi
          && first_missing t q = !missing
          && Interval_set.first_present t ~lo:q
             = (if !present < model_size then !present else max_int)
          && intervals t = runs_from 0
          && intervals ~from:q t = runs_from q)
        steps)

(* Property: [cardinal] agrees with the bitmap model after every op of a
   random sequence of adds and clears, so the count kept across adds
   restarts from zero at a clear. *)
let ivs_cardinal_prop =
  let open QCheck2 in
  let op =
    Gen.(
      frequency
        [ (12, map (fun r -> `Add r) ivs_range); (1, pure `Clear) ])
  in
  Test.make ~name:"cardinal matches bitmap model after every op" ~count:300
    Gen.(list_size (int_range 0 60) op)
    (fun ops ->
      let model = Array.make model_size false in
      let t = Interval_set.create () in
      List.for_all
        (fun op ->
          (match op with
          | `Add (lo, len) ->
            ignore (model_add model lo (lo + len));
            ignore (add t lo (lo + len))
          | `Clear ->
            Array.fill model 0 model_size false;
            Interval_set.clear t);
          Interval_set.cardinal t = model_cardinal model)
        ops)

(* Property: after a random sequence of adds, [cardinal], the gaps of a
   random query range (read off [fold]) and [covers] of that range all
   agree with the bitmap model. *)
let ivs_model_queries_prop =
  let open QCheck2 in
  let gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 0 60) ivs_range)
      (Gen.int_range 0 250) (Gen.int_range 0 80)
  in
  Test.make ~name:"cardinal/gaps/covers match bitmap model" ~count:500 gen
    (fun (ranges, qlo, qlen) ->
      let model = Array.make model_size false in
      let t = Interval_set.create () in
      List.iter
        (fun (lo, len) ->
          ignore (model_add model lo (lo + len));
          ignore (add t lo (lo + len)))
        ranges;
      let qhi = min model_size (qlo + qlen) in
      Interval_set.cardinal t = model_cardinal model
      && gaps t ~lo:qlo ~hi:qhi = model_runs model ~v:false ~lo:qlo ~hi:qhi
      && covers t qlo qhi = model_covers model qlo qhi)

(* ------------------------------------------------------------------ *)
(* Domain_pool *)

let test_domain_pool_map () =
  let pool = Domain_pool.create ~size:3 in
  let xs = List.init 50 Fun.id in
  let ys = Domain_pool.map pool (fun x -> x * x) xs in
  Alcotest.(check (list int)) "ordered results" (List.map (fun x -> x * x) xs) ys;
  (* A second batch reuses the same workers. *)
  let zs = Domain_pool.map pool string_of_int xs in
  Alcotest.(check string) "second batch" "49" (List.nth zs 49);
  Domain_pool.shutdown pool

let test_domain_pool_exception () =
  let pool = Domain_pool.create ~size:2 in
  let raised =
    try
      ignore
        (Domain_pool.map pool
           (fun x -> if x = 3 then failwith "boom" else x)
           [ 1; 2; 3; 4 ]);
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "exception propagates" true raised;
  (* Pool still usable after a failing batch. *)
  Alcotest.(check (list int)) "alive" [ 2; 4 ]
    (Domain_pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
  Domain_pool.shutdown pool

let test_domain_pool_domain_local_state () =
  (* Packet ids are domain-local: jobs that reset them behave the same
     on any worker, which is what makes --jobs N bit-identical. *)
  let pool = Domain_pool.create ~size:4 in
  let ids =
    Domain_pool.map pool
      (fun _ ->
        Leotp_net.Packet.reset_ids ();
        let p =
          Leotp_net.Packet_pool.acquire ~src:1 ~dst:2 ~flow:1 ~size:100
            ~kind:Leotp_net.Packet.kind_raw
        in
        p.Leotp_net.Packet.id)
      (List.init 16 Fun.id)
  in
  Alcotest.(check (list int)) "all first ids" (List.init 16 (fun _ -> 1)) ids;
  Domain_pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Guarded / Atomic_counter *)

let test_guarded_counts_across_domains () =
  (* 4 domains x 1000 increments through with_: no lost updates. *)
  let cell = Guarded.create (ref 0) in
  let worker () =
    for _ = 1 to 1000 do
      Guarded.with_ cell (fun r -> incr r)
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "no lost updates" 4000 (Guarded.with_ cell (fun r -> !r))

let test_guarded_await () =
  (* await blocks until a producer domain pushes enough elements. *)
  let q = Guarded.create (Queue.create ()) in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 10 do
          Guarded.with_ q (fun q -> Queue.push i q)
        done)
  in
  let sum = ref 0 and got = ref 0 in
  while !got < 10 do
    let v = Guarded.await q (fun q -> Queue.take_opt q) in
    incr got;
    sum := !sum + v
  done;
  Domain.join producer;
  Alcotest.(check int) "all consumed" 55 !sum

let test_guarded_get_set () =
  let g = Guarded.create 1 in
  Guarded.set g 42;
  Alcotest.(check int) "set/get" 42 (Guarded.get g);
  (* with_ releases the lock on exception *)
  (try Guarded.with_ g (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "usable after raise" 42 (Guarded.get g)

let test_atomic_counter () =
  let c = Atomic_counter.create () in
  let s = Atomic_counter.Sum.create () in
  let worker () =
    for _ = 1 to 1000 do
      Atomic_counter.incr c;
      Atomic_counter.Sum.add s 0.5
    done
  in
  let ds = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "int counter" 4000 (Atomic_counter.get c);
  check_float "float sum" 2000.0 (Atomic_counter.Sum.get s);
  Atomic_counter.reset c;
  Atomic_counter.Sum.reset s;
  Alcotest.(check int) "reset" 0 (Atomic_counter.get c);
  check_float "sum reset" 0.0 (Atomic_counter.Sum.get s);
  Atomic_counter.add c 7;
  Alcotest.(check int) "add" 7 (Atomic_counter.get c)

(* ------------------------------------------------------------------ *)
(* Stats *)

(* [Stats.add] reads its sample from a slot. *)
let add_sample s x = Stats.add s [| x |] 0

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (add_sample s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_float "mean" 3.0 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 5.0 (Stats.max s);
  check_float "median" 3.0 (Stats.median s);
  check_float "total" 15.0 (Stats.total s);
  check_floats ~eps:1e-6 "stddev" (sqrt 2.5) (Stats.stddev s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    add_sample s (float_of_int i)
  done;
  check_floats ~eps:1e-6 "p0" 1.0 (Stats.percentile s 0.0);
  check_floats ~eps:1e-6 "p100" 100.0 (Stats.percentile s 100.0);
  check_floats ~eps:0.6 "p50" 50.5 (Stats.percentile s 50.0);
  check_floats ~eps:1.1 "p99" 99.0 (Stats.percentile s 99.0)

let test_stats_cdf () =
  let s = Stats.create () in
  List.iter (add_sample s) [ 1.0; 2.0; 3.0; 4.0 ];
  let cdf = Stats.cdf_points ~points:4 s in
  Alcotest.(check bool)
    "ends at 1" true
    (match List.rev cdf with (_, f) :: _ -> f = 1.0 | [] -> false);
  Alcotest.(check bool)
    "monotone" true
    (let rec mono = function
       | (v1, f1) :: ((v2, f2) :: _ as rest) ->
         v1 <= v2 && f1 <= f2 && mono rest
       | _ -> true
     in
     mono cdf)

let test_jain () =
  check_float "equal is fair" 1.0 (Stats.jain_index [ 5.0; 5.0; 5.0 ]);
  check_floats ~eps:1e-6 "one hog" (1.0 /. 3.0) (Stats.jain_index [ 9.0; 0.0; 0.0 ]);
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Stats.jain_index []))

let jain_bounds_prop =
  let open QCheck2 in
  Test.make ~name:"jain index in (0,1]" ~count:200
    Gen.(list_size (int_range 1 20) (float_range 0.0 100.0))
    (fun xs ->
      let j = Stats.jain_index xs in
      (* all-zero allocations are defined as fair *)
      j > 0.0 && j <= 1.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Rto *)

let test_rto_first_sample () =
  let r = Rto.create ~min_rto:0.0 () in
  check_float "initial" 1.0 (Rto.rto r);
  Rto.observe r ~now:0.1 ~sent:0.0;
  (* RFC 6298: srtt = R, rttvar = R/2, rto = srtt + 4*rttvar = 3R *)
  check_floats ~eps:1e-6 "after first" 0.3 (Rto.rto r);
  Alcotest.(check (option (float 1e-9))) "srtt" (Some 0.1) (Rto.srtt r)

let test_rto_smoothing () =
  let r = Rto.create ~min_rto:0.0 () in
  Rto.observe r ~now:0.1 ~sent:0.0;
  Rto.observe r ~now:0.1 ~sent:0.0;
  (* rttvar' = 0.75*0.05 + 0.25*0 = 0.0375; srtt stays 0.1 *)
  check_floats ~eps:1e-6 "converging" (0.1 +. (4.0 *. 0.0375)) (Rto.rto r)

let test_rto_backoff () =
  let r = Rto.create ~min_rto:0.0 ~backoff_factor:1.5 () in
  Rto.observe r ~now:0.1 ~sent:0.0;
  let base = Rto.rto r in
  Rto.backoff r;
  check_floats ~eps:1e-9 "x1.5" (base *. 1.5) (Rto.rto r);
  Rto.backoff r;
  check_floats ~eps:1e-9 "x2.25" (base *. 2.25) (Rto.rto r);
  Rto.reset_backoff r;
  check_floats ~eps:1e-9 "reset" base (Rto.rto r);
  Rto.backoff r;
  Rto.observe r ~now:0.1 ~sent:0.0;
  (* The new sample both resets the backoff and tightens rttvar:
     rttvar' = 0.75*0.05 + 0.25*0 = 0.0375, so rto = 0.1 + 4*0.0375. *)
  check_floats ~eps:1e-9 "sample resets backoff" 0.25 (Rto.rto r)

let test_rto_bounds () =
  let r = Rto.create ~min_rto:0.2 ~max_rto:1.0 () in
  Rto.observe r ~now:0.001 ~sent:0.0;
  check_float "min clamp" 0.2 (Rto.rto r);
  for _ = 1 to 20 do
    Rto.backoff r
  done;
  check_float "max clamp" 1.0 (Rto.rto r)

(* The RFC 6298 floor is 0 before the first sample, then
   min (SRTT + 4 * RTTVAR, timeout) with the backoff and the min/max
   bounds left out. *)
let test_rto_timeout_floor () =
  let r = Rto.create ~min_rto:0.5 ~max_rto:2.0 () in
  check_float "before samples" 0.0 (Rto.timeout_floor r ~timeout:1.0);
  Rto.observe r ~now:0.1 ~sent:0.0;
  (* srtt = 0.1, rttvar = 0.05: the raw formula gives 0.3, under the
     0.5 s min_rto the armed timeout carries *)
  check_floats ~eps:1e-12 "raw formula" 0.3 (Rto.timeout_floor r ~timeout:0.5);
  check_float "clamped by the timeout" 0.25 (Rto.timeout_floor r ~timeout:0.25);
  Rto.backoff r;
  check_floats ~eps:1e-12 "backoff leaves it" 0.3
    (Rto.timeout_floor r ~timeout:(Rto.rto r));
  Rto.observe r ~now:0.1 ~sent:0.0;
  check_float "second sample"
    (0.1 +. (4.0 *. 0.0375))
    (Rto.timeout_floor r ~timeout:1.0)

(* ------------------------------------------------------------------ *)
(* Token_bucket *)

let test_bucket_basic () =
  let b = Token_bucket.create ~rate:1000.0 ~burst:500.0 ~now:0.0 in
  Alcotest.(check bool) "burst ok" true (Token_bucket.try_consume b ~now:0.0 500);
  Alcotest.(check bool) "exhausted" false (Token_bucket.try_consume b ~now:0.0 1);
  check_floats ~eps:1e-9 "wait for 100" 0.1 (Token_bucket.time_until b ~now:0.0 100);
  Alcotest.(check bool)
    "refilled" true
    (Token_bucket.try_consume b ~now:0.1 100);
  Alcotest.(check bool)
    "capped at burst" false
    (Token_bucket.try_consume b ~now:100.0 501)

let test_bucket_set_rate () =
  let b = Token_bucket.create ~rate:1000.0 ~burst:100.0 ~now:0.0 in
  ignore (Token_bucket.try_consume b ~now:0.0 100);
  Token_bucket.set_rate b ~now:0.0 [| 2000.0 |] 0;
  check_floats ~eps:1e-9 "faster" 0.05 (Token_bucket.time_until b ~now:0.0 100);
  Token_bucket.set_rate b ~now:0.0 [| 0.0 |] 0;
  Alcotest.(check bool)
    "zero rate waits forever" true
    (Float.is_integer (Token_bucket.time_until b ~now:0.0 100) = false
    || Token_bucket.time_until b ~now:0.0 100 = Float.infinity)

(* Property: over any span, consumed bytes <= burst + rate * span. *)
let bucket_rate_prop =
  let open QCheck2 in
  Test.make ~name:"token bucket enforces rate" ~count:200
    Gen.(
      pair
        (float_range 100.0 10_000.0)
        (list_size (int_range 1 100) (pair (float_range 0.0 0.01) (int_range 1 400))))
    (fun (rate, reqs) ->
      let burst = 1_000.0 in
      let b = Token_bucket.create ~rate ~burst ~now:0.0 in
      let now = ref 0.0 in
      let consumed = ref 0 in
      List.iter
        (fun (dt, n) ->
          now := !now +. dt;
          if Token_bucket.try_consume b ~now:!now n then consumed := !consumed + n)
        reqs;
      float_of_int !consumed <= burst +. (rate *. !now) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Windowed_min *)

(* The extremum over the window, as an option. *)
let windowed_get w ~now =
  let out = [| 0.0 |] in
  if Windowed_min.get_into w ~now out 0 then Some out.(0) else None

let test_windowed_min () =
  let w = Windowed_min.create_min ~window:5.0 in
  Alcotest.(check (option (float 1e-9))) "empty" None (windowed_get w ~now:0.0);
  Windowed_min.add w ~now:0.0 [| 10.0 |] 0;
  Windowed_min.add w ~now:1.0 [| 5.0 |] 0;
  Windowed_min.add w ~now:2.0 [| 8.0 |] 0;
  Alcotest.(check (option (float 1e-9)))
    "min" (Some 5.0)
    (windowed_get w ~now:2.0);
  (* The 5.0 sample at t=1 expires after t=6. *)
  Alcotest.(check (option (float 1e-9)))
    "expired min" (Some 8.0)
    (windowed_get w ~now:6.5);
  Alcotest.(check (option (float 1e-9)))
    "all expired" None
    (windowed_get w ~now:100.0);
  check_float "default" 42.0 (Windowed_min.get_or w ~now:100.0 ~default:42.0)

let test_windowed_max () =
  let w = Windowed_min.create_max ~window:5.0 in
  Windowed_min.add w ~now:0.0 [| 10.0 |] 0;
  Windowed_min.add w ~now:1.0 [| 50.0 |] 0;
  Windowed_min.add w ~now:2.0 [| 8.0 |] 0;
  Alcotest.(check (option (float 1e-9)))
    "max" (Some 50.0)
    (windowed_get w ~now:2.0);
  Alcotest.(check (option (float 1e-9)))
    "after expiry" (Some 8.0)
    (windowed_get w ~now:6.5)

let windowed_max_prop =
  let open QCheck2 in
  Test.make ~name:"windowed max = naive max over window" ~count:200
    Gen.(
      list_size (int_range 1 50)
        (pair (float_range 0.0 1.0) (float_range 0.0 100.0)))
    (fun steps ->
      let w = Windowed_min.create_max ~window:2.0 in
      let now = ref 0.0 in
      let hist = ref [] in
      List.for_all
        (fun (dt, v) ->
          now := !now +. dt;
          Windowed_min.add w ~now:!now [| v |] 0;
          hist := (!now, v) :: !hist;
          let expect =
            List.filter_map
              (fun (ts, x) -> if ts >= !now -. 2.0 then Some x else None)
              !hist
            |> List.fold_left Float.max Float.neg_infinity
          in
          match windowed_get w ~now:!now with
          | Some m -> Float.abs (m -. expect) < 1e-9
          | None -> false)
        steps)

let windowed_min_prop =
  let open QCheck2 in
  Test.make ~name:"windowed min = naive min over window" ~count:200
    Gen.(list_size (int_range 1 50) (pair (float_range 0.0 1.0) (float_range 0.0 100.0)))
    (fun steps ->
      let w = Windowed_min.create_min ~window:2.0 in
      let now = ref 0.0 in
      let hist = ref [] in
      List.for_all
        (fun (dt, v) ->
          now := !now +. dt;
          Windowed_min.add w ~now:!now [| v |] 0;
          hist := (!now, v) :: !hist;
          let expect =
            List.filter_map
              (fun (ts, x) -> if ts >= !now -. 2.0 then Some x else None)
              !hist
            |> List.fold_left Float.min Float.infinity
          in
          match windowed_get w ~now:!now with
          | Some m -> Float.abs (m -. expect) < 1e-9
          | None -> false)
        steps)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let draw seed =
    let r = Rng.create ~seed in
    let s = Rng.substream r "link" in
    List.init 10 (fun _ -> Rng.float s 1.0)
  in
  Alcotest.(check (list (float 0.0))) "same seed same stream" (draw 42) (draw 42);
  Alcotest.(check bool)
    "different seeds differ" true
    (draw 42 <> draw 43)

let test_rng_substreams_independent () =
  let r = Rng.create ~seed:7 in
  let a = Rng.substream r "a" and b = Rng.substream r "b" in
  let xs = List.init 20 (fun _ -> Rng.float a 1.0) in
  let ys = List.init 20 (fun _ -> Rng.float b 1.0) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_bernoulli () =
  let r = Rng.create ~seed:1 in
  Alcotest.(check bool) "p=0 never" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bernoulli r 1.0);
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.3 approx" true (Float.abs (f -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:2 in
  let n = 20_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~mean:5.0
  done;
  let m = !acc /. float_of_int n in
  Alcotest.(check bool) "mean approx 5" true (Float.abs (m -. 5.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let test_timeseries () =
  let ts = Timeseries.create () in
  Timeseries.add ts ~time:0.5 [| 10.0 |] 0;
  Timeseries.add ts ~time:1.5 [| 20.0 |] 0;
  Timeseries.add ts ~time:2.5 [| 30.0 |] 0;
  check_float "window sum" 30.0 (Timeseries.window_sum ts ~lo:0.0 ~hi:2.0);
  Alcotest.(check int) "length" 3 (Timeseries.length ts);
  let buckets = Timeseries.bucketize ts ~width:1.0 ~t_end:3.0 in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "buckets"
    [ (0.0, 10.0); (1.0, 20.0); (2.0, 30.0) ]
    buckets;
  let rates = Timeseries.rate_series ts ~width:2.0 ~t_end:4.0 in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "rates"
    [ (0.0, 15.0); (2.0, 15.0) ]
    rates

(* ------------------------------------------------------------------ *)
(* Seg_store *)

(* A range tagged through [retx_count], so the model can check that each
   rank holds the very record put there. *)
let seg ~seq ~len ~tag =
  {
    Seg_store.seq;
    len;
    retx_count = tag;
    sacked = false;
    lost = false;
    times = { first_sent = 0.0; last_sent = 0.0; due = 0.0; floor = 0.0 };
  }

let store_contents t =
  List.init (Seg_store.length t) (fun i ->
      let s = Seg_store.get t i in
      (s.Seg_store.seq, s.Seg_store.len, s.Seg_store.retx_count))

(* Property: the store agrees with a sorted list of (seq, len, tag)
   after every op of a random script of [push_back], [insert] at
   [lower_bound], [remove] at a random rank, a cumulative drop (removals
   at rank 0 of every range ending at or below a point) and a scan of
   [k] ranks with [get] from the [lower_bound] of a point, as the TCP
   sender walks the store.  Ranges are disjoint, the range of key [k]
   inside [10k, 10k + 10), as in every user of the store.  Scripts run
   up to 300 ops from the 64 slots of a fresh store, so they grow it,
   wrap around its ring and move both sides on insert and remove. *)
let seg_store_model_prop =
  let open QCheck2 in
  let op =
    Gen.(
      frequency
        [
          (6, map2 (fun gap len -> `Push (gap, len)) (int_range 0 2) (int_range 1 10));
          (3, map2 (fun p len -> `Insert (p, len)) (int_range 0 1000) (int_range 1 10));
          (2, map (fun r -> `Remove r) nat);
          (1, map (fun d -> `Drop d) (int_range 0 30));
          (2, map2 (fun p k -> `Scan (p, k)) (int_range 0 1000) (int_range 0 4));
        ])
  in
  Test.make ~name:"seg_store matches sorted-list model" ~count:300
    Gen.(list_size (int_range 0 300) op)
    (fun ops ->
      let t = Seg_store.create () in
      let model = ref [] and next = ref 0 in
      let model_lower_bound from =
        let rec go i = function
          | (s, _, _) :: rest when s < from -> go (i + 1) rest
          | _ -> i
        in
        go 0 !model
      in
      let tag (_, _, g) = g in
      (* A position [p] permille of the way up the stored keys. *)
      let at p =
        match List.rev !model with
        | [] -> 0
        | (s, _, _) :: _ -> p * (s + 20) / 1000
      in
      List.for_all
        (fun op ->
          incr next;
          let g = !next in
          let ok =
            match op with
            | `Push (gap, len) ->
              let k =
                match List.rev !model with
                | [] -> gap
                | (s, _, _) :: _ -> (s / 10) + 1 + gap
              in
              Seg_store.push_back t (seg ~seq:(10 * k) ~len ~tag:g);
              model := !model @ [ (10 * k, len, g) ];
              true
            | `Insert (p, len) ->
              let k = at p / 10 in
              List.exists (fun (s, _, _) -> s / 10 = k) !model
              ||
              let i = Seg_store.lower_bound t ~from:(10 * k) in
              let j = model_lower_bound (10 * k) in
              Seg_store.insert t i (seg ~seq:(10 * k) ~len ~tag:g);
              model :=
                List.filteri (fun x _ -> x < j) !model
                @ ((10 * k, len, g) :: List.filteri (fun x _ -> x >= j) !model);
              i = j
            | `Remove r ->
              let n = List.length !model in
              n = 0
              ||
              let r = r mod n in
              Seg_store.remove t r;
              model := List.filteri (fun x _ -> x <> r) !model;
              true
            | `Drop d ->
              let cum = match !model with [] -> d | (s, _, _) :: _ -> s + d in
              let rec drop () =
                if not (Seg_store.is_empty t) then begin
                  let s = Seg_store.get t 0 in
                  if s.Seg_store.seq + s.Seg_store.len <= cum then begin
                    Seg_store.remove t 0;
                    drop ()
                  end
                end
              in
              drop ();
              model := List.filter (fun (s, len, _) -> s + len > cum) !model;
              true
            | `Scan (p, k) ->
              let from = at p in
              let i = Seg_store.lower_bound t ~from in
              let seen =
                List.init
                  (min k (Seg_store.length t - i))
                  (fun j -> (Seg_store.get t (i + j)).Seg_store.retx_count)
              in
              let above = List.filter (fun (s, _, _) -> s >= from) !model in
              i = model_lower_bound from
              && seen = List.map tag (List.filteri (fun i _ -> i < k) above)
          in
          ok
          && store_contents t = !model
          && Seg_store.is_empty t = (!model = []))
        ops)

(* Warm operations on a store whose array has already grown allocate
   nothing: an insert and a removal on each side, and an append. *)
let test_seg_store_allocates_nothing () =
  let t = Seg_store.create () in
  let segs = Array.init 200 (fun i -> seg ~seq:(10 * i) ~len:5 ~tag:i) in
  for i = 0 to 99 do
    Seg_store.push_back t segs.(2 * i)
  done;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words ignore in
  let insert =
    words (fun () ->
        Seg_store.insert t (Seg_store.lower_bound t ~from:10) segs.(1);
        Seg_store.insert t (Seg_store.lower_bound t ~from:1950) segs.(195))
  in
  let remove =
    words (fun () ->
        Seg_store.remove t 1;
        Seg_store.remove t 95)
  in
  let push = words (fun () -> Seg_store.push_back t segs.(199)) in
  Alcotest.(check int) "length" 101 (Seg_store.length t);
  Alcotest.(check int) "last" 1990 (Seg_store.get t 100).Seg_store.seq;
  Alcotest.(check (float 0.0)) "insert" 0.0 (insert -. idle);
  Alcotest.(check (float 0.0)) "remove" 0.0 (remove -. idle);
  Alcotest.(check (float 0.0)) "push_back" 0.0 (push -. idle)

(* ------------------------------------------------------------------ *)
(* Range_table *)

(* Scripts over 4 flows x 16 ranges (up to 64 live keys, so the table
   grows from 16 to 128 slots and removals shift long clusters back),
   compared after every op with an association list holding each key's
   stamp, value and further values: every key's slot and payload, an
   absent key's [-1], and the length. *)
let range_table_model_prop =
  let open QCheck2 in
  let key = Gen.(pair (int_range 0 3) (int_range 0 15)) in
  let op =
    Gen.(
      frequency
        [
          (6, map (fun k -> `Add k) key);
          (2, map2 (fun k v -> `More (k, v)) key (int_range 0 9));
          (4, map (fun k -> `Remove k) key);
          (1, pure `Clear);
        ])
  in
  Test.make ~name:"range_table matches association-list model" ~count:300
    Gen.(list_size (int_range 1 400) op)
    (fun ops ->
      let t = Range_table.create () in
      let model = ref [] in
      let bounds (f, r) = (f, r * 1400, (r + 1) * 1400) in
      let slot k =
        let flow, lo, hi = bounds k in
        Range_table.find t ~flow ~lo ~hi
      in
      let stamp = ref 0.0 in
      let apply = function
        | `Add k when not (List.mem_assoc k !model) ->
          let flow, lo, hi = bounds k in
          let s = Range_table.add t ~flow ~lo ~hi in
          stamp := !stamp +. 1.0;
          Range_table.set t s ~stamp:!stamp ~value:(fst k);
          model := (k, (!stamp, fst k, [])) :: !model
        | `Add _ -> ()
        | `More (k, v) -> (
          match List.assoc_opt k !model with
          | Some (st, value, more) ->
            Range_table.push_more t (slot k) v;
            model := (k, (st, value, v :: more)) :: List.remove_assoc k !model
          | None -> ())
        | `Remove k ->
          if List.mem_assoc k !model then begin
            Range_table.remove t (slot k);
            model := List.remove_assoc k !model
          end
        | `Clear ->
          Range_table.clear t;
          model := []
      in
      let agrees () =
        Range_table.length t = List.length !model
        && List.for_all
             (fun (f, r) ->
               let s = slot (f, r) in
               match List.assoc_opt (f, r) !model with
               | None -> s = -1
               | Some (st, value, more) ->
                 s >= 0
                 && Range_table.flow t s = f
                 && Range_table.lo t s = r * 1400
                 && Range_table.hi t s = (r + 1) * 1400
                 && Range_table.value t s = value
                 && Range_table.more t s = more
                 && Float.equal (Range_table.stamps t).(s) st
                 && Range_table.younger t s ~now:!stamp ~than:(!stamp -. st +. 0.5)
                 && not (Range_table.younger t s ~now:!stamp ~than:(!stamp -. st)))
             (List.concat_map (fun f -> List.init 16 (fun r -> (f, r))) [ 0; 1; 2; 3 ])
      in
      List.for_all (fun op -> apply op; agrees ()) ops)

(* Warm operations on a table whose arrays have grown allocate nothing:
   adds with their payloads, lookups, and removals, which at this load
   shift clusters back. *)
let test_range_table_allocates_nothing () =
  let t = Range_table.create () in
  let fill () =
    for i = 0 to 29 do
      let s =
        Range_table.add t ~flow:(1 + (i mod 3)) ~lo:(i * 1400)
          ~hi:((i + 1) * 1400)
      in
      Range_table.set t s ~stamp:2.5 ~value:i
    done
  in
  let empty_out () =
    for i = 0 to 29 do
      Range_table.remove t
        (Range_table.find t ~flow:(1 + (i mod 3)) ~lo:(i * 1400)
           ~hi:((i + 1) * 1400))
    done
  in
  fill ();
  empty_out ();
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let filled = words fill -. words ignore in
  Alcotest.(check int) "length" 30 (Range_table.length t);
  Alcotest.(check int) "value" 17
    (Range_table.value t
       (Range_table.find t ~flow:3 ~lo:(17 * 1400) ~hi:(18 * 1400)));
  let emptied = words empty_out -. words ignore in
  Alcotest.(check int) "emptied" 0 (Range_table.length t);
  Alcotest.(check (float 0.0)) "adds" 0.0 filled;
  Alcotest.(check (float 0.0)) "removals" 0.0 emptied

(* Filling the bottom hole of a set of 1,500 spans whose array sits in
   the major heap shifts every span above it, up on an insert and down
   on a merge; each result matches the bitmap model. *)
let test_ivs_bottom_fill () =
  let n = 1500 in
  let size = 3 * (n + 1) in
  let model = Array.make size false in
  let t = Interval_set.create () in
  for k = 1 to n do
    ignore (model_add model (3 * k) ((3 * k) + 1));
    ignore (add t (3 * k) ((3 * k) + 1))
  done;
  Gc.full_major ();
  let check what lo hi =
    check_int (what ^ ": added") (model_add model lo hi) (add t lo hi);
    check_int (what ^ ": cardinal") (model_cardinal model)
      (Interval_set.cardinal t);
    check_intervals what (model_runs model ~v:true ~lo:0 ~hi:size)
      (intervals t)
  in
  check "insert below every span" 0 1;
  check "merge the two lowest" 1 3;
  check "merge a middle run" 1500 2000

(* ------------------------------------------------------------------ *)
(* Allocation-free draws and sorts *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [Rng.bernoulli] draws as [p > 0. && float s 1.0 < p] does: draw for
   draw, over seeds and probabilities (0, 1 and 1e-9 among them), and
   leaves the stream where that leaves it. *)
let bernoulli_prop =
  let open QCheck2 in
  let p_gen =
    Gen.(
      oneof
        [ oneofl [ 0.0; 1.0; 1e-9; 0.5; -0.25; 1.5 ]; float_range 0.0 1.0 ])
  in
  Test.make ~name:"bernoulli agrees with float draws" ~count:300
    Gen.(triple (int_range 0 100_000) p_gen (int_range 1 500))
    (fun (seed, p, n) ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      let same = ref true in
      for _ = 1 to n do
        let x = Rng.bernoulli a p in
        let y = p > 0. && Rng.float b 1.0 < p in
        if x <> y then same := false
      done;
      !same && Rng.int a 1_000_000 = Rng.int b 1_000_000)

let test_bernoulli_allocates_nothing () =
  let r = Rng.create ~seed:5 in
  let hits = ref 0 in
  let p = 0.3 in
  let w =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          if Rng.bernoulli r p then incr hits
        done)
  in
  check_bool "some hits" true (!hits > 0);
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* [Stats.sort_floats] is [Array.sort Float.compare] bit for bit, with
   NaNs, signed zeros, infinities and ties in the input. *)
let float_sort_prop =
  let open QCheck2 in
  let special =
    Gen.oneofl
      [ Float.nan; -.Float.nan; 0.0; -0.0; Float.infinity; Float.neg_infinity;
        1.0; -1.0; 1e-300 ]
  in
  let elt = Gen.(frequency [ (1, special); (2, float); (2, map float_of_int (int_range (-5) 5)) ]) in
  Test.make ~name:"float sort equals Array.sort Float.compare" ~count:500
    ~print:Print.(array float)
    Gen.(array_size (int_range 0 200) elt)
    (fun a ->
      let x = Array.copy a and y = Array.copy a in
      Stats.sort_floats x;
      Array.sort Float.compare y;
      Array.for_all2
        (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
        x y)

(* [Rto.stamp] writes what [rto] and [timeout_floor] return, and it and
   [observe] allocate nothing (the estimator's floats are flat). *)
let test_rto_stamp () =
  let r = Rto.create ~min_rto:0.05 ~max_rto:2.0 ~backoff_factor:1.5 () in
  Rto.observe r ~now:0.3 ~sent:0.2;
  Rto.backoff r;
  let timeout = Rto.rto r in
  let floor = Rto.timeout_floor r ~timeout in
  let st = Seg_store.make ~seq:0 ~len:1 in
  let w = minor_words (fun () -> Rto.stamp r ~now:1.0 st.Seg_store.times) in
  check_float "due" (1.0 +. timeout) st.Seg_store.times.Seg_store.due;
  check_float "floor" floor st.Seg_store.times.Seg_store.floor;
  Alcotest.(check (float 0.0)) "stamp words" 0.0 w;
  let w = minor_words (fun () -> Rto.observe r ~now:1.25 ~sent:1.0) in
  Alcotest.(check (float 0.0)) "observe words" 0.0 w;
  check_floats ~eps:1e-12 "smoothed" ((0.875 *. 0.1) +. (0.125 *. 0.25))
    (Option.get (Rto.srtt r))

(* A percentile over n samples allocates its one sorted copy (n + 1
   words), not words per comparison. *)
let test_percentile_allocation () =
  let n = 20_000 in
  let s = Stats.create () in
  let r = Rng.create ~seed:9 in
  for _ = 1 to n do
    add_sample s (Rng.float r 1.0)
  done;
  let p99 = ref 0.0 in
  let w = minor_words (fun () -> p99 := Stats.percentile s 99.0) in
  check_bool "a sample" true (!p99 > 0.9 && !p99 < 1.0);
  check_bool
    (Printf.sprintf "%.0f words for %d samples" w n)
    true
    (w <= float_of_int (n + 64))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_util"
    [
      ( "interval_set",
        [
          Alcotest.test_case "empty" `Quick test_ivs_empty;
          Alcotest.test_case "add/merge" `Quick test_ivs_add_merge;
          Alcotest.test_case "empty ranges" `Quick test_ivs_add_empty_range;
          Alcotest.test_case "queries" `Quick test_ivs_queries;
          Alcotest.test_case "clear" `Quick test_ivs_clear;
          qc ivs_model_prop;
          qc ivs_cardinal_prop;
          qc ivs_model_queries_prop;
          Alcotest.test_case "bottom fill of a promoted set" `Quick
            test_ivs_bottom_fill;
        ] );
      ( "range_table",
        [
          qc range_table_model_prop;
          Alcotest.test_case "warm ops allocate nothing" `Quick
            test_range_table_allocates_nothing;
        ] );
      ( "seg_store",
        [
          qc seg_store_model_prop;
          Alcotest.test_case "warm ops allocate nothing" `Quick
            test_seg_store_allocates_nothing;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "map" `Quick test_domain_pool_map;
          Alcotest.test_case "exceptions" `Quick test_domain_pool_exception;
          Alcotest.test_case "domain-local state" `Quick
            test_domain_pool_domain_local_state;
        ] );
      ( "guarded",
        [
          Alcotest.test_case "cross-domain counts" `Quick
            test_guarded_counts_across_domains;
          Alcotest.test_case "await" `Quick test_guarded_await;
          Alcotest.test_case "get/set/raise" `Quick test_guarded_get_set;
          Alcotest.test_case "atomic counter" `Quick test_atomic_counter;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "cdf" `Quick test_stats_cdf;
          Alcotest.test_case "jain" `Quick test_jain;
          qc jain_bounds_prop;
          qc float_sort_prop;
          Alcotest.test_case "percentile allocates its copy" `Quick
            test_percentile_allocation;
        ] );
      ( "rto",
        [
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "bounds" `Quick test_rto_bounds;
          Alcotest.test_case "timeout floor" `Quick test_rto_timeout_floor;
          Alcotest.test_case "stamp" `Quick test_rto_stamp;
        ] );
      ( "token_bucket",
        [
          Alcotest.test_case "basic" `Quick test_bucket_basic;
          Alcotest.test_case "set rate" `Quick test_bucket_set_rate;
          qc bucket_rate_prop;
        ] );
      ( "windowed_min",
        [
          Alcotest.test_case "min" `Quick test_windowed_min;
          Alcotest.test_case "max" `Quick test_windowed_max;
          qc windowed_min_prop;
          qc windowed_max_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "substreams" `Quick test_rng_substreams_independent;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          qc bernoulli_prop;
          Alcotest.test_case "bernoulli allocates nothing" `Quick
            test_bernoulli_allocates_nothing;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_mean;
        ] );
      ("timeseries", [ Alcotest.test_case "windows" `Quick test_timeseries ]);
    ]
