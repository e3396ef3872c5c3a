(* QCheck properties for the zero-allocation packet layer: constructors
   and accessors agree for every packet kind (both wire modules), and the
   pool-recycling contract (acquire-after-release never shows stale
   fields; debug poisoning catches a planted use-after-release). *)

module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Lwire = Leotp.Wire
module Twire = Leotp_tcp.Wire

let fbits = Int64.bits_of_float

(* Compare by bit pattern so NaN and -0.0 count as exact round-trips. *)
let float_eq a b = Int64.equal (fbits a) (fbits b)

(* ------------------------------------------------------------------ *)
(* Generators.  Byte positions exercise boundaries (0, 1, max_int);
   floats include 0.0, -0.0, nan and t=0.0-adjacent values. *)

open QCheck2

let pos_gen =
  Gen.frequency
    [
      (6, Gen.int_bound 1_000_000_000);
      (1, Gen.oneofl [ 0; 1; max_int; max_int - 1 ]);
    ]

let float_gen =
  Gen.frequency
    [
      (6, Gen.float_bound_inclusive 1e6);
      (1, Gen.oneofl [ 0.0; -0.0; Float.nan; Float.min_float; 1e-300 ]);
    ]

let node_gen = Gen.int_bound 10_000
let flow_gen = Gen.int_bound 1_000

(* Hand the constructed packet to [check], then release it.  Packets
   are never serialized: each "round-trip" below goes through a wire
   module's constructor and back out through its accessors. *)
let checked p check =
  let ok = check p in
  Pool.release p;
  ok

let header_is ~src ~dst ~flow ~size (p : Packet.t) =
  p.Packet.src = src && p.Packet.dst = dst && p.Packet.flow = flow
  && p.Packet.size = size

(* ------------------------------------------------------------------ *)
(* LEOTP packets: Interest and Data (VPH = Data with length 0).         *)

let config = Leotp.Config.default

let interest_round_trip =
  Test.make ~name:"interest codec round-trips" ~count:500
    Gen.(
      tup4 (pair node_gen node_gen) (pair flow_gen pos_gen)
        (pair float_gen float_gen) bool)
  @@ fun ((src, dst), (flow, lo), (ts, rate), retx) ->
  let hi = lo + 1400 in
  let p =
    Lwire.interest_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp:ts
      ~send_rate:rate ~retx
  in
  checked p (fun q ->
      header_is ~src ~dst ~flow ~size:config.Leotp.Config.header_bytes q
      && Lwire.is_interest q
      && Lwire.lo q = lo && Lwire.hi q = hi
      && float_eq q.Packet.f.(Lwire.timestamp_slot) ts
      && float_eq q.Packet.f.(Lwire.send_rate_slot) rate
      && Lwire.retx q = retx)

let data_round_trip =
  Test.make ~name:"data codec round-trips (incl. VPH length=0)" ~count:500
    Gen.(
      tup5 (pair node_gen node_gen) (pair flow_gen pos_gen)
        (triple float_gen float_gen float_gen)
        bool
        (* vph: a zero-length virtual packet header *)
        bool)
  @@ fun ((src, dst), (flow, lo), (ts, owd, first), retx, vph) ->
  let hi = if vph then lo else lo + 1400 in
  let p =
    if vph then Lwire.vph_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp:ts
    else
      Lwire.data_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp:ts
        ~req_owd:owd ~first_sent:first ~retx
  in
  checked p (fun q ->
      header_is ~src ~dst ~flow
        ~size:(config.Leotp.Config.header_bytes + hi - lo)
        q
      && Lwire.is_data q
      && Lwire.lo q = lo && Lwire.hi q = hi
      && Lwire.length q = (if vph then 0 else hi - lo)
      && Lwire.is_vph q = vph
      && float_eq q.Packet.f.(Lwire.timestamp_slot) ts
      && (vph || (float_eq q.Packet.f.(Lwire.req_owd_slot) owd && Lwire.retx q = retx)))

(* ------------------------------------------------------------------ *)
(* TCP packets: Data_seg (retx/fin flags) and Ack_seg (0..3 SACK        *)
(* slots, ts_echo presence flag — t=0.0 must survive as a valid echo).  *)

let data_seg_round_trip =
  Test.make ~name:"data_seg codec round-trips (retx/fin flags)" ~count:500
    Gen.(
      tup5 (pair node_gen node_gen) (pair flow_gen pos_gen)
        (pair float_gen float_gen) bool bool)
  @@ fun ((src, dst), (flow, seq), (sent, first), retx, fin) ->
  let p =
    Twire.data_packet ~src ~dst ~flow ~seq ~len:1400 ~sent_at:sent
      ~first_sent:first ~retx ~fin
  in
  checked p (fun q ->
      header_is ~src ~dst ~flow ~size:(Twire.header_bytes + 1400) q
      && Twire.is_data_seg q
      && Twire.seq q = seq && Twire.len q = 1400
      && float_eq (Twire.sent_at q) sent
      && float_eq (Twire.first_sent q) first
      && Twire.retx q = retx && Twire.fin q = fin)

let ack_seg_round_trip =
  Test.make ~name:"ack_seg codec round-trips (sacks, ts_echo incl. 0.0)"
    ~count:500
    Gen.(
      tup4 (pair node_gen node_gen) (pair flow_gen pos_gen)
        (list_size (int_bound 3) (pair pos_gen (int_range 1 100_000)))
        (option (oneof [ float_gen; pure 0.0 ])))
  @@ fun ((src, dst), (flow, cum), sacks, ts_echo) ->
  let p = Twire.ack_packet ~src ~dst ~flow ~cum_ack:cum in
  List.iter (fun (lo, len) -> Twire.add_sack p ~lo ~hi:(lo + len)) sacks;
  (match ts_echo with Some t -> Twire.set_ts_echo p t | None -> ());
  checked p (fun q ->
      header_is ~src ~dst ~flow ~size:Twire.header_bytes q
      && Twire.is_ack_seg q
      && Twire.cum_ack q = cum
      && Twire.sack_count q = List.length sacks
      && List.for_all2
           (fun (lo, len) i ->
             Twire.sack_lo q i = lo && Twire.sack_hi q i = lo + len)
           sacks
           (List.init (List.length sacks) Fun.id)
      && Twire.has_ts_echo q = Option.is_some ts_echo
      && match ts_echo with
         | Some t -> float_eq (Twire.ts_echo q) t
         | None -> true)

(* ------------------------------------------------------------------ *)
(* Pool recycling.                                                      *)

let scribble (p : Packet.t) =
  p.Packet.i0 <- 111; p.Packet.i1 <- 222; p.Packet.i2 <- 333;
  p.Packet.i3 <- 444; p.Packet.i4 <- 555; p.Packet.i5 <- 666;
  p.Packet.i6 <- 777; p.Packet.i7 <- 888;
  for i = 0 to Packet.float_slots - 1 do p.Packet.f.(i) <- 3.14 done;
  p.Packet.flags <- Packet.flag_retx lor Packet.flag_fin

let clean (p : Packet.t) =
  p.Packet.i0 = 0 && p.Packet.i1 = 0 && p.Packet.i2 = 0 && p.Packet.i3 = 0
  && p.Packet.i4 = 0 && p.Packet.i5 = 0 && p.Packet.i6 = 0 && p.Packet.i7 = 0
  && Array.for_all (fun x -> Float.equal x 0.0) p.Packet.f
  && p.Packet.flags = 0

let recycle_never_stale =
  Test.make ~name:"release -> acquire never observes stale fields" ~count:300
    Gen.(pair (pair node_gen node_gen) (pair flow_gen (int_range 1 65_535)))
  @@ fun ((src, dst), (flow, size)) ->
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:4 ~kind:Packet.kind_raw in
  scribble p;
  Pool.release p;
  let q = Pool.acquire ~src ~dst ~flow ~size ~kind:Packet.kind_raw in
  let ok =
    q.Packet.src = src && q.Packet.dst = dst && q.Packet.flow = flow
    && q.Packet.size = size && q.Packet.kind = Packet.kind_raw && clean q
  in
  Pool.release q;
  ok

(* Run [f] with pool debug mode on, restoring the previous setting. *)
let with_debug f =
  let prev = Pool.debug_enabled () in
  Pool.set_debug true;
  Fun.protect ~finally:(fun () -> Pool.set_debug prev) f

let test_poison_catches_use_after_release () =
  with_debug @@ fun () ->
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:100 ~kind:Packet.kind_raw in
  p.Packet.i0 <- 42;
  p.Packet.f.(0) <- 1.5;
  Pool.release p;
  (* The planted stale reference must see sentinels, not plausible data. *)
  Alcotest.(check int) "int slot poisoned" Pool.poison_int p.Packet.i0;
  Alcotest.(check bool) "float slot poisoned" true
    (Float.equal p.Packet.f.(0) Pool.poison_float);
  Alcotest.(check bool) "free flag set" true
    (Packet.get_flag p Packet.flag_free);
  (* Re-acquisition hands the same record back fully reset. *)
  let q = Pool.acquire ~src:9 ~dst:8 ~flow:7 ~size:50 ~kind:Packet.kind_raw in
  Alcotest.(check bool) "reacquired record is clean" true (clean q);
  Pool.release q

let test_double_release_raises_in_debug () =
  with_debug @@ fun () ->
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:100 ~kind:Packet.kind_raw in
  Pool.release p;
  (match Pool.release p with
  | () -> Alcotest.fail "double release did not raise in debug mode"
  | exception Invalid_argument _ -> ());
  (* Drain the record so later tests start from a consistent pool. *)
  let q = Pool.acquire ~src:0 ~dst:0 ~flow:0 ~size:1 ~kind:Packet.kind_raw in
  Pool.release q

let test_double_release_counted_without_debug () =
  let before = Pool.double_release_count () in
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:10 ~kind:Packet.kind_raw in
  Pool.release p;
  (* Non-debug: the redundant release is ignored (first wins) but the
     counter records the bug for teardown asserts. *)
  Pool.release p;
  Alcotest.(check int) "double release counted" (before + 1)
    (Pool.double_release_count ());
  Alcotest.(check int) "record not double-pooled: live delta is -1 not -2"
    0
    (let q = Pool.acquire ~src:0 ~dst:0 ~flow:0 ~size:1 ~kind:Packet.kind_raw in
     let d = Pool.live_count () in
     Pool.release q;
     d - Pool.live_count () - 1);
  Pool.reset_double_release_count ();
  Alcotest.(check int) "counter reset" 0 (Pool.double_release_count ())

let test_clone_of_released_raises_in_debug () =
  with_debug @@ fun () ->
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:64 ~kind:Packet.kind_raw in
  Pool.release p;
  (match Pool.clone p with
  | _ -> Alcotest.fail "clone of released packet did not raise in debug mode"
  | exception Invalid_argument _ -> ());
  let q = Pool.acquire ~src:0 ~dst:0 ~flow:0 ~size:1 ~kind:Packet.kind_raw in
  Pool.release q

let test_clone_recycles_poisoned_record () =
  with_debug @@ fun () ->
  (* Release a scribbled record, then clone a live one: the clone must
     reuse the poisoned free-list record (LIFO pool: it sits on top) and
     come out an exact copy. *)
  let p = Pool.acquire ~src:1 ~dst:2 ~flow:3 ~size:50 ~kind:Packet.kind_raw in
  let dead = Pool.acquire ~src:9 ~dst:9 ~flow:9 ~size:9 ~kind:Packet.kind_raw in
  scribble dead;
  Pool.release dead;
  p.Packet.i0 <- 42;
  p.Packet.f.(1) <- 2.5;
  let c = Pool.clone p in
  Alcotest.(check bool) "clone reused the released record" true (c == dead);
  Alcotest.(check int) "same id (same logical packet)" p.Packet.id c.Packet.id;
  Alcotest.(check int) "slot copied, not poisoned" 42 c.Packet.i0;
  Alcotest.(check bool) "float slot copied" true
    (Float.equal c.Packet.f.(1) 2.5);
  Alcotest.(check bool) "clone is not marked free" false
    (Packet.get_flag c Packet.flag_free);
  Pool.release p;
  Pool.release c

let test_live_count_exact_across_domain_pool_jobs () =
  (* Pools and live counters are domain-local: each Domain_pool worker
     must see an exactly balanced acquire/clone/release ledger for its
     own jobs, independent of what other workers do. *)
  let dp = Leotp_util.Domain_pool.create ~size:2 in
  Fun.protect ~finally:(fun () -> Leotp_util.Domain_pool.shutdown dp)
  @@ fun () ->
  let job n =
    let d0 = Pool.live_count () in
    let ps =
      List.init n (fun i ->
          Pool.acquire ~src:i ~dst:i ~flow:i ~size:(i + 1)
            ~kind:Packet.kind_raw)
    in
    let cs = List.map Pool.clone ps in
    let mid = Pool.live_count () - d0 in
    List.iter Pool.release ps;
    List.iter Pool.release cs;
    (mid, Pool.live_count () - d0)
  in
  let results = Leotp_util.Domain_pool.map dp job [ 5; 17; 33; 9; 21; 2 ] in
  List.iter2
    (fun n (mid, fin) ->
      Alcotest.(check int)
        (Printf.sprintf "%d acquires + clones live mid-job" n)
        (2 * n) mid;
      Alcotest.(check int) "balanced after releases" 0 fin)
    [ 5; 17; 33; 9; 21; 2 ] results;
  Alcotest.(check int) "no double release across jobs" 0
    (Pool.double_release_count ())

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_pool"
    [
      ( "codecs",
        [
          qt interest_round_trip;
          qt data_round_trip;
          qt data_seg_round_trip;
          qt ack_seg_round_trip;
        ] );
      ( "pool",
        [
          qt recycle_never_stale;
          Alcotest.test_case "poison catches use-after-release" `Quick
            test_poison_catches_use_after_release;
          Alcotest.test_case "double release raises in debug" `Quick
            test_double_release_raises_in_debug;
          Alcotest.test_case "double release counted without debug" `Quick
            test_double_release_counted_without_debug;
          Alcotest.test_case "clone of released raises in debug" `Quick
            test_clone_of_released_raises_in_debug;
          Alcotest.test_case "clone recycles poisoned record" `Quick
            test_clone_recycles_poisoned_record;
          Alcotest.test_case "live_count exact across Domain_pool jobs" `Quick
            test_live_count_exact_across_domain_pool_jobs;
        ] );
    ]
