(* Tests for leotp_util: interval sets, heap, stats, RTO, token bucket,
   windowed filters, RNG, time series. *)

open Leotp_util

let check_float = Alcotest.(check (float 1e-9))
let check_floats ?(eps = 1e-9) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Interval_set *)

let ivs l =
  List.fold_left (fun acc (lo, hi) -> Interval_set.add ~lo ~hi acc)
    Interval_set.empty l

let test_ivs_empty () =
  Alcotest.(check bool) "empty" true Interval_set.(is_empty empty);
  Alcotest.(check int) "cardinal" 0 Interval_set.(cardinal empty);
  Alcotest.(check bool) "mem" false (Interval_set.mem 3 Interval_set.empty)

let test_ivs_add_merge () =
  let t = ivs [ (0, 10); (20, 30) ] in
  Alcotest.(check (list (pair int int)))
    "disjoint"
    [ (0, 10); (20, 30) ]
    (Interval_set.intervals t);
  let t = Interval_set.add ~lo:10 ~hi:20 t in
  Alcotest.(check (list (pair int int)))
    "adjacent merge" [ (0, 30) ] (Interval_set.intervals t);
  let t = ivs [ (0, 10); (5, 25) ] in
  Alcotest.(check (list (pair int int)))
    "overlap merge" [ (0, 25) ] (Interval_set.intervals t);
  let t = ivs [ (0, 5); (10, 15); (20, 25); (2, 22) ] in
  Alcotest.(check (list (pair int int)))
    "absorb several" [ (0, 25) ] (Interval_set.intervals t)

let test_ivs_add_empty_range () =
  let t = Interval_set.add ~lo:5 ~hi:5 Interval_set.empty in
  Alcotest.(check bool) "noop" true (Interval_set.is_empty t);
  let t = Interval_set.add ~lo:7 ~hi:3 Interval_set.empty in
  Alcotest.(check bool) "inverted noop" true (Interval_set.is_empty t)

let test_ivs_remove () =
  let t = ivs [ (0, 30) ] in
  let t = Interval_set.remove ~lo:10 ~hi:20 t in
  Alcotest.(check (list (pair int int)))
    "split"
    [ (0, 10); (20, 30) ]
    (Interval_set.intervals t);
  let t = Interval_set.remove ~lo:0 ~hi:5 t in
  Alcotest.(check (list (pair int int)))
    "trim head"
    [ (5, 10); (20, 30) ]
    (Interval_set.intervals t);
  let t = Interval_set.remove ~lo:25 ~hi:100 t in
  Alcotest.(check (list (pair int int)))
    "trim tail"
    [ (5, 10); (20, 25) ]
    (Interval_set.intervals t);
  let t = Interval_set.remove ~lo:0 ~hi:100 t in
  Alcotest.(check bool) "clear" true (Interval_set.is_empty t)

let test_ivs_queries () =
  let t = ivs [ (10, 20); (30, 40) ] in
  Alcotest.(check bool) "mem in" true (Interval_set.mem 15 t);
  Alcotest.(check bool) "mem edge lo" true (Interval_set.mem 10 t);
  Alcotest.(check bool) "mem edge hi" false (Interval_set.mem 20 t);
  Alcotest.(check bool) "covers" true (Interval_set.covers ~lo:12 ~hi:18 t);
  Alcotest.(check bool)
    "covers exact" true
    (Interval_set.covers ~lo:10 ~hi:20 t);
  Alcotest.(check bool)
    "covers gap" false
    (Interval_set.covers ~lo:15 ~hi:35 t);
  Alcotest.(check bool)
    "intersects" true
    (Interval_set.intersects ~lo:15 ~hi:35 t);
  Alcotest.(check bool)
    "no intersect" false
    (Interval_set.intersects ~lo:20 ~hi:30 t);
  Alcotest.(check int) "cardinal" 20 (Interval_set.cardinal t);
  Alcotest.(check int) "count" 2 (Interval_set.count_intervals t)

let test_ivs_gaps () =
  let t = ivs [ (10, 20); (30, 40) ] in
  Alcotest.(check (list (pair int int)))
    "gaps"
    [ (0, 10); (20, 30); (40, 50) ]
    (Interval_set.gaps ~lo:0 ~hi:50 t);
  Alcotest.(check (list (pair int int)))
    "gaps inside" [ (20, 30) ]
    (Interval_set.gaps ~lo:10 ~hi:40 t);
  Alcotest.(check (list (pair int int)))
    "no gaps" []
    (Interval_set.gaps ~lo:12 ~hi:18 t);
  Alcotest.(check int) "first missing" 20 (Interval_set.first_missing ~lo:10 t);
  Alcotest.(check int) "first missing out" 25 (Interval_set.first_missing ~lo:25 t)

let test_ivs_union () =
  let a = ivs [ (0, 5); (10, 15) ] and b = ivs [ (3, 12); (20, 25) ] in
  Alcotest.(check (list (pair int int)))
    "union"
    [ (0, 15); (20, 25) ]
    (Interval_set.intervals (Interval_set.union a b))

(* Property: a random sequence of adds/removes matches a naive bitmap
   model. *)
let ivs_model_prop =
  let open QCheck2 in
  let op =
    Gen.(
      triple (oneofl [ `Add; `Remove ]) (int_range 0 199) (int_range 0 60))
  in
  Test.make ~name:"interval_set matches bitmap model" ~count:300
    Gen.(list_size (int_range 0 40) op)
    (fun ops ->
      let model = Array.make 260 false in
      let t =
        List.fold_left
          (fun t (op, lo, len) ->
            let hi = lo + len in
            (match op with
            | `Add ->
              for i = lo to hi - 1 do
                model.(i) <- true
              done
            | `Remove ->
              for i = lo to hi - 1 do
                model.(i) <- false
              done);
            match op with
            | `Add -> Interval_set.add ~lo ~hi t
            | `Remove -> Interval_set.remove ~lo ~hi t)
          Interval_set.empty ops
      in
      let ok = ref true in
      for i = 0 to 259 do
        if Interval_set.mem i t <> model.(i) then ok := false
      done;
      let card = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model in
      !ok && Interval_set.cardinal t = card)

let ivs_gaps_prop =
  let open QCheck2 in
  Test.make ~name:"gaps partition the range" ~count:200
    Gen.(list_size (int_range 0 20) (pair (int_range 0 100) (int_range 1 30)))
    (fun ranges ->
      let t =
        List.fold_left
          (fun t (lo, len) -> Interval_set.add ~lo ~hi:(lo + len) t)
          Interval_set.empty ranges
      in
      let gaps = Interval_set.gaps ~lo:0 ~hi:150 t in
      let gap_total = List.fold_left (fun a (l, h) -> a + h - l) 0 gaps in
      let covered = ref 0 in
      for i = 0 to 149 do
        if Interval_set.mem i t then incr covered
      done;
      gap_total + !covered = 150
      && List.for_all
           (fun (l, h) -> l < h && not (Interval_set.intersects ~lo:l ~hi:h t))
           gaps)

(* Property: after a random add/remove sequence, [cardinal], [gaps] and
   [covers] all agree with the naive list-of-booleans reference (guards
   the incremental byte-count and the range-limited gap walk). *)
let ivs_model_queries_prop =
  let open QCheck2 in
  let op =
    Gen.(
      triple (oneofl [ `Add; `Remove ]) (int_range 0 199) (int_range 0 60))
  in
  let gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 0 60) op)
      (Gen.int_range 0 250)
      (Gen.int_range 0 80)
  in
  Test.make ~name:"cardinal/gaps/covers match bitmap model" ~count:500 gen
    (fun (ops, qlo, qlen) ->
      let size = 260 in
      let model = Array.make size false in
      let t =
        List.fold_left
          (fun t (op, lo, len) ->
            let hi = lo + len in
            match op with
            | `Add ->
              for i = lo to hi - 1 do
                model.(i) <- true
              done;
              Interval_set.add ~lo ~hi t
            | `Remove ->
              for i = lo to hi - 1 do
                model.(i) <- false
              done;
              Interval_set.remove ~lo ~hi t)
          Interval_set.empty ops
      in
      let card =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model
      in
      let qhi = min size (qlo + qlen) in
      let model_covers =
        let ok = ref true in
        for i = qlo to qhi - 1 do
          if not model.(i) then ok := false
        done;
        !ok
      in
      let model_gaps =
        let acc = ref [] and start = ref (-1) in
        for i = qlo to qhi - 1 do
          if (not model.(i)) && !start < 0 then start := i;
          if model.(i) && !start >= 0 then begin
            acc := (!start, i) :: !acc;
            start := -1
          end
        done;
        if !start >= 0 then acc := (!start, qhi) :: !acc;
        List.rev !acc
      in
      Interval_set.cardinal t = card
      && Interval_set.covers ~lo:qlo ~hi:qhi t = model_covers
      && Interval_set.gaps ~lo:qlo ~hi:qhi t = model_gaps)

(* Property: the incrementally-maintained byte count stays consistent
   with the bitmap model after EVERY operation, not just at the end of
   the sequence — an incremental-update bug that a later op happens to
   cancel out would slip past the end-of-sequence check above. *)
let ivs_cardinal_stepwise_prop =
  let open QCheck2 in
  let op =
    Gen.(
      triple (oneofl [ `Add; `Remove ]) (int_range 0 199) (int_range 0 60))
  in
  Test.make ~name:"cardinal matches bitmap model after every op" ~count:300
    Gen.(list_size (int_range 0 40) op)
    (fun ops ->
      let model = Array.make 260 false in
      let ok = ref true in
      ignore
        (List.fold_left
           (fun t (op, lo, len) ->
             let hi = lo + len in
             let t =
               match op with
               | `Add ->
                 for i = lo to hi - 1 do
                   model.(i) <- true
                 done;
                 Interval_set.add ~lo ~hi t
               | `Remove ->
                 for i = lo to hi - 1 do
                   model.(i) <- false
                 done;
                 Interval_set.remove ~lo ~hi t
             in
             let card =
               Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 model
             in
             if Interval_set.cardinal t <> card then ok := false;
             t)
           Interval_set.empty ops);
      !ok)

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create ~cmp:Int.compare in
  List.iter (Pqueue.push q) [ 5; 3; 8; 1; 9; 2; 7 ];
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (drain [])

let test_pqueue_empty () =
  let q = Pqueue.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check (option int)) "pop none" None (Pqueue.pop q)

let pqueue_sort_prop =
  let open QCheck2 in
  Test.make ~name:"pqueue drains sorted" ~count:200
    Gen.(list_size (int_range 0 200) int)
    (fun xs ->
      let q = Pqueue.create ~cmp:Int.compare in
      List.iter (Pqueue.push q) xs;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

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

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_float "mean" 3.0 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 5.0 (Stats.max s);
  check_float "median" 3.0 (Stats.median s);
  check_float "total" 15.0 (Stats.total s);
  check_floats ~eps:1e-6 "stddev" (sqrt 2.5) (Stats.stddev s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_floats ~eps:1e-6 "p0" 1.0 (Stats.percentile s 0.0);
  check_floats ~eps:1e-6 "p100" 100.0 (Stats.percentile s 100.0);
  check_floats ~eps:0.6 "p50" 50.5 (Stats.percentile s 50.0);
  check_floats ~eps:1.1 "p99" 99.0 (Stats.percentile s 99.0)

let test_stats_cdf () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
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

let test_welford () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_floats ~eps:1e-9 "mean" 5.0 (Stats.Welford.mean w);
  check_floats ~eps:1e-9 "var" 4.571428571428571 (Stats.Welford.variance w)

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  Alcotest.(check bool) "unprimed nan" true (Float.is_nan (Stats.Ewma.value e));
  check_float "default" 7.0 (Stats.Ewma.value_or e ~default:7.0);
  Stats.Ewma.add e 10.0;
  check_float "first" 10.0 (Stats.Ewma.value e);
  Stats.Ewma.add e 20.0;
  check_float "second" 15.0 (Stats.Ewma.value e)

(* ------------------------------------------------------------------ *)
(* Rto *)

let test_rto_first_sample () =
  let r = Rto.create ~min_rto:0.0 () in
  check_float "initial" 1.0 (Rto.rto r);
  Rto.observe r 0.1;
  (* RFC 6298: srtt = R, rttvar = R/2, rto = srtt + 4*rttvar = 3R *)
  check_floats ~eps:1e-6 "after first" 0.3 (Rto.rto r);
  Alcotest.(check (option (float 1e-9))) "srtt" (Some 0.1) (Rto.srtt r)

let test_rto_smoothing () =
  let r = Rto.create ~min_rto:0.0 () in
  Rto.observe r 0.1;
  Rto.observe r 0.1;
  (* rttvar' = 0.75*0.05 + 0.25*0 = 0.0375; srtt stays 0.1 *)
  check_floats ~eps:1e-6 "converging" (0.1 +. (4.0 *. 0.0375)) (Rto.rto r)

let test_rto_backoff () =
  let r = Rto.create ~min_rto:0.0 ~backoff_factor:1.5 () in
  Rto.observe r 0.1;
  let base = Rto.rto r in
  Rto.backoff r;
  check_floats ~eps:1e-9 "x1.5" (base *. 1.5) (Rto.rto r);
  Rto.backoff r;
  check_floats ~eps:1e-9 "x2.25" (base *. 2.25) (Rto.rto r);
  Rto.reset_backoff r;
  check_floats ~eps:1e-9 "reset" base (Rto.rto r);
  Rto.backoff r;
  Rto.observe r 0.1;
  (* The new sample both resets the backoff and tightens rttvar:
     rttvar' = 0.75*0.05 + 0.25*0 = 0.0375, so rto = 0.1 + 4*0.0375. *)
  check_floats ~eps:1e-9 "sample resets backoff" 0.25 (Rto.rto r)

let test_rto_bounds () =
  let r = Rto.create ~min_rto:0.2 ~max_rto:1.0 () in
  Rto.observe r 0.001;
  check_float "min clamp" 0.2 (Rto.rto r);
  for _ = 1 to 20 do
    Rto.backoff r
  done;
  check_float "max clamp" 1.0 (Rto.rto r)

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
  Token_bucket.set_rate b ~now:0.0 2000.0;
  check_floats ~eps:1e-9 "faster" 0.05 (Token_bucket.time_until b ~now:0.0 100);
  Token_bucket.set_rate b ~now:0.0 0.0;
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

let test_windowed_min () =
  let w = Windowed_min.create_min ~window:5.0 in
  Alcotest.(check (option (float 1e-9))) "empty" None (Windowed_min.get w ~now:0.0);
  Windowed_min.add w ~now:0.0 10.0;
  Windowed_min.add w ~now:1.0 5.0;
  Windowed_min.add w ~now:2.0 8.0;
  Alcotest.(check (option (float 1e-9)))
    "min" (Some 5.0)
    (Windowed_min.get w ~now:2.0);
  (* The 5.0 sample at t=1 expires after t=6. *)
  Alcotest.(check (option (float 1e-9)))
    "expired min" (Some 8.0)
    (Windowed_min.get w ~now:6.5);
  Alcotest.(check (option (float 1e-9)))
    "all expired" None
    (Windowed_min.get w ~now:100.0);
  check_float "default" 42.0 (Windowed_min.get_or w ~now:100.0 ~default:42.0)

let test_windowed_max () =
  let w = Windowed_min.create_max ~window:5.0 in
  Windowed_min.add w ~now:0.0 10.0;
  Windowed_min.add w ~now:1.0 50.0;
  Windowed_min.add w ~now:2.0 8.0;
  Alcotest.(check (option (float 1e-9)))
    "max" (Some 50.0)
    (Windowed_min.get w ~now:2.0);
  Alcotest.(check (option (float 1e-9)))
    "after expiry" (Some 8.0)
    (Windowed_min.get w ~now:6.5)

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
          Windowed_min.add w ~now:!now v;
          hist := (!now, v) :: !hist;
          let expect =
            List.filter_map
              (fun (ts, x) -> if ts >= !now -. 2.0 then Some x else None)
              !hist
            |> List.fold_left Float.max Float.neg_infinity
          in
          match Windowed_min.get w ~now:!now with
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
          Windowed_min.add w ~now:!now v;
          hist := (!now, v) :: !hist;
          let expect =
            List.filter_map
              (fun (ts, x) -> if ts >= !now -. 2.0 then Some x else None)
              !hist
            |> List.fold_left Float.min Float.infinity
          in
          match Windowed_min.get w ~now:!now with
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
  Timeseries.add ts ~time:0.5 10.0;
  Timeseries.add ts ~time:1.5 20.0;
  Timeseries.add ts ~time:2.5 30.0;
  check_float "window sum" 30.0 (Timeseries.window_sum ts ~lo:0.0 ~hi:2.0);
  check_float "window mean" 15.0 (Timeseries.window_mean ts ~lo:0.0 ~hi:2.0);
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

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_util"
    [
      ( "interval_set",
        [
          Alcotest.test_case "empty" `Quick test_ivs_empty;
          Alcotest.test_case "add/merge" `Quick test_ivs_add_merge;
          Alcotest.test_case "empty ranges" `Quick test_ivs_add_empty_range;
          Alcotest.test_case "remove" `Quick test_ivs_remove;
          Alcotest.test_case "queries" `Quick test_ivs_queries;
          Alcotest.test_case "gaps" `Quick test_ivs_gaps;
          Alcotest.test_case "union" `Quick test_ivs_union;
          qc ivs_model_prop;
          qc ivs_gaps_prop;
          qc ivs_model_queries_prop;
          qc ivs_cardinal_stepwise_prop;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          qc pqueue_sort_prop;
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
          Alcotest.test_case "welford" `Quick test_welford;
          Alcotest.test_case "ewma" `Quick test_ewma;
          qc jain_bounds_prop;
        ] );
      ( "rto",
        [
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "bounds" `Quick test_rto_bounds;
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
          Alcotest.test_case "exponential" `Quick test_rng_exponential_mean;
        ] );
      ("timeseries", [ Alcotest.test_case "windows" `Quick test_timeseries ]);
    ]
