(* Tests for the LEOTP core: wire format, cache, SHR (Algorithm 1 and the
   paper's Fig 8b example), hop congestion control, backpressure,
   send buffer, and full-protocol behaviour over simulated paths —
   including the end-to-end reliability property under random loss and
   link switching, and the ablation orderings of Table II. *)

module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Bandwidth = Leotp_net.Bandwidth
module Topology = Leotp_net.Topology
module Flow_metrics = Leotp_net.Flow_metrics
open Leotp

let mbps = Leotp_util.Units.mbps_to_bytes_per_sec
let config = Config.default

let setup () =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  (Engine.create (), Leotp_util.Rng.create ~seed:11)

(* The controller, the cache and the sending buffer read their floats
   from packet slots.  These build the records (outside the pool) that
   carry them. *)
let f_slot (p : Leotp_net.Packet.t) i = p.Leotp_net.Packet.f.(i)

let data_record ~flow ~lo ~hi ~first_sent ~retx =
  let p = Leotp_net.Packet.blank () in
  p.Leotp_net.Packet.kind <- Wire.kind_data;
  p.Leotp_net.Packet.flow <- flow;
  p.Leotp_net.Packet.i0 <- lo;
  p.Leotp_net.Packet.i1 <- hi;
  p.Leotp_net.Packet.i2 <- hi - lo;
  p.Leotp_net.Packet.f.(Wire.first_sent_slot) <- first_sent;
  Leotp_net.Packet.set_flag p Leotp_net.Packet.flag_retx retx;
  p

let cache_insert c ~flow ~lo ~hi ~first_sent ~retx =
  Cache.insert c (data_record ~flow ~lo ~hi ~first_sent ~retx)

(* A Data sample: the Interest OWD it carries, and a timestamp
   [data_owd] before [now]. *)
let hop_data cc ~now ~interest_owd ~data_owd ~bytes =
  let p = data_record ~flow:1 ~lo:0 ~hi:bytes ~first_sent:0.0 ~retx:false in
  p.Leotp_net.Packet.f.(Wire.req_owd_slot) <- interest_owd;
  p.Leotp_net.Packet.f.(Wire.timestamp_slot) <- now -. data_owd;
  Hop_cc.on_data cc ~now p

let interest_record ~timestamp ~send_rate =
  let p = Leotp_net.Packet.blank () in
  p.Leotp_net.Packet.kind <- Wire.kind_interest;
  p.Leotp_net.Packet.f.(Wire.timestamp_slot) <- timestamp;
  p.Leotp_net.Packet.f.(Wire.send_rate_slot) <- send_rate;
  p

let on_interest sb ~now ~timestamp ~send_rate =
  Send_buffer.on_interest sb ~now (interest_record ~timestamp ~send_rate)

let cwnd cc = (Hop_cc.window cc).Hop_cc.cwnd

let hop_rate cc ~now =
  let r = [| 0.0 |] in
  Hop_cc.rate_into cc ~now r 0;
  r.(0)

(* Eq (10) into [p], with [next_hop_rate] in its send-rate slot. *)
let advertise cc ~now ~buffer_len ~next_hop_rate p =
  p.Leotp_net.Packet.f.(Wire.send_rate_slot) <- next_hop_rate;
  Hop_cc.advertise cc ~now ~buffer_len p

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_sizes () =
  let i =
    Wire.interest_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:0 ~hi:1400
      ~timestamp:0.0 ~send_rate:1e6 ~retx:false
  in
  Alcotest.(check int) "interest = header" 15 i.Leotp_net.Packet.size;
  let d =
    Wire.data_packet ~config ~src:2 ~dst:1 ~flow:1 ~lo:0 ~hi:1400
      ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0 ~retx:false
  in
  Alcotest.(check int) "data = header+payload" 1415 d.Leotp_net.Packet.size;
  let v = Wire.vph_packet ~config ~src:2 ~dst:1 ~flow:1 ~lo:0 ~hi:1400 ~timestamp:0.0 in
  Alcotest.(check int) "vph = header" 15 v.Leotp_net.Packet.size;
  Alcotest.(check bool) "vph flag" true (Wire.is_vph v);
  Alcotest.(check bool) "data not vph" false (Wire.is_vph d)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_roundtrip () =
  let c = Cache.create ~config () in
  cache_insert c ~flow:1 ~lo:0 ~hi:1400 ~first_sent:1.0 ~retx:false;
  (match Cache.lookup c ~flow:1 ~lo:0 ~hi:1400 with
  | Some (fs, retx) ->
    Alcotest.(check (float 1e-9)) "first_sent kept" 1.0 fs;
    Alcotest.(check bool) "retx kept" false retx
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check bool)
    "miss on different flow" true
    (Cache.lookup c ~flow:2 ~lo:0 ~hi:1400 = None);
  Alcotest.(check bool)
    "miss on uncovered range" true
    (Cache.lookup c ~flow:1 ~lo:1400 ~hi:2800 = None);
  let st = Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Cache.hits;
  Alcotest.(check int) "misses" 2 st.Cache.misses

let test_cache_cross_block () =
  let c = Cache.create ~config () in
  (* 4096-byte blocks: [3000, 6000) spans blocks 0 and 1. *)
  cache_insert c ~flow:1 ~lo:3000 ~hi:6000 ~first_sent:2.0 ~retx:true;
  (match Cache.lookup c ~flow:1 ~lo:3000 ~hi:6000 with
  | Some (_, retx) -> Alcotest.(check bool) "retx carried" true retx
  | None -> Alcotest.fail "cross-block hit expected");
  Alcotest.(check bool)
    "sub-range hit" true
    (Cache.lookup c ~flow:1 ~lo:4000 ~hi:4200 <> None);
  Alcotest.(check bool)
    "partially covered misses" true
    (Cache.lookup c ~flow:1 ~lo:2999 ~hi:3001 = None)

let test_cache_eviction () =
  let small = { config with Config.cache_capacity = 10_000 } in
  let c = Cache.create ~config:small () in
  for i = 0 to 9 do
    cache_insert c ~flow:1 ~lo:(i * 4096) ~hi:((i + 1) * 4096) ~first_sent:0.0
      ~retx:false
  done;
  Alcotest.(check bool)
    "capacity respected" true
    (Cache.used_bytes c <= 10_000);
  Alcotest.(check bool) "evictions counted" true ((Cache.stats c).Cache.evictions > 0);
  (* Oldest blocks evicted, newest survive. *)
  Alcotest.(check bool)
    "LRU keeps newest" true
    (Cache.lookup c ~flow:1 ~lo:(9 * 4096) ~hi:(10 * 4096) <> None);
  Alcotest.(check bool)
    "LRU evicts oldest" true
    (Cache.lookup c ~flow:1 ~lo:0 ~hi:4096 = None)

let test_cache_drop_flow () =
  let c = Cache.create ~config () in
  cache_insert c ~flow:1 ~lo:0 ~hi:1400 ~first_sent:0.0 ~retx:false;
  cache_insert c ~flow:2 ~lo:0 ~hi:1400 ~first_sent:0.0 ~retx:false;
  Cache.drop_flow c ~flow:1;
  Alcotest.(check bool) "flow 1 gone" true (Cache.lookup c ~flow:1 ~lo:0 ~hi:1400 = None);
  Alcotest.(check bool) "flow 2 kept" true (Cache.lookup c ~flow:2 ~lo:0 ~hi:1400 <> None)

(* A block's key packs (flow, block index) into one int; what does not
   fit is refused, never aliased onto another block. *)
let test_cache_key_range () =
  let c = Cache.create ~config () in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "negative flow" (fun () ->
      cache_insert c ~flow:(-1) ~lo:0 ~hi:10 ~first_sent:0.0 ~retx:false);
  refused "flow 2^30" (fun () ->
      ignore (Cache.lookup c ~flow:(1 lsl 30) ~lo:0 ~hi:10));
  let far = config.Config.cache_block lsl 32 in
  refused "block 2^32" (fun () ->
      ignore (Cache.contains c ~flow:1 ~lo:far ~hi:(far + 1)));
  cache_insert c ~flow:((1 lsl 30) - 1) ~lo:0 ~hi:10 ~first_sent:0.0 ~retx:false;
  Alcotest.(check bool)
    "largest flow kept apart" false
    (Cache.contains c ~flow:0 ~lo:0 ~hi:10);
  Alcotest.(check int) "nothing else stored" 10 (Cache.used_bytes c)

(* A warm insert into a block the cache already holds allocates
   nothing: the block's byte ranges and metadata are updated in place. *)
let test_cache_insert_allocates_nothing () =
  let c = Cache.create ~config () in
  (* One Data record, re-ranged per insert: building it allocates. *)
  let data = data_record ~flow:1 ~lo:0 ~hi:1400 ~first_sent:0.5 ~retx:false in
  let insert lo hi =
    data.Leotp_net.Packet.i0 <- lo;
    data.Leotp_net.Packet.i1 <- hi;
    Cache.insert c data
  in
  insert 0 1400;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words ignore in
  let w =
    words (fun () ->
        insert 2800 4096;
        insert 1400 2800;
        for i = 0 to 999 do
          let lo = i * 7 mod 3000 in
          insert lo (lo + 1000)
        done)
    -. idle
  in
  Alcotest.(check int) "one full block" 4096 (Cache.used_bytes c);
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* A warm add into a set whose array has already grown allocates
   nothing, whether it inserts a span between two others or merges
   spans. *)
let test_interval_set_add_allocates_nothing () =
  let module Interval_set = Leotp_util.Interval_set in
  let s = Interval_set.create () in
  for i = 0 to 19 do
    ignore (Interval_set.add s ~lo:(10 * i) ~hi:((10 * i) + 5))
  done;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words ignore in
  let insert = words (fun () -> ignore (Interval_set.add s ~lo:7 ~hi:8)) in
  let merge = words (fun () -> ignore (Interval_set.add s ~lo:15 ~hi:30)) in
  Alcotest.(check int) "both applied" 111 (Interval_set.cardinal s);
  Alcotest.(check (float 0.0)) "insert between spans" 0.0 (insert -. idle);
  Alcotest.(check (float 0.0)) "merge" 0.0 (merge -. idle)

(* Minor words [f] allocates, net of the measurement itself. *)
let minor_words f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  words f -. words ignore

(* A warm registration and its satisfaction allocate nothing: the PIT's
   table has grown, and its key and payload sit in place. *)
let test_pit_allocates_nothing () =
  let pit = Pit.create ~expiry:1.0 () in
  let range i = (i * 1400, (i + 1) * 1400) in
  for i = 0 to 9 do
    let lo, hi = range i in
    ignore (Pit.register pit ~now:0.5 ~flow:1 ~lo ~hi ~consumer:7)
  done;
  for i = 0 to 9 do
    let lo, hi = range i in
    ignore (Pit.satisfy pit ~now:0.5 ~flow:1 ~lo ~hi)
  done;
  let lo, hi = range 20 in
  let now = 0.75 in
  let forwarded = ref false and waiting = ref 0 in
  let w =
    minor_words (fun () ->
        forwarded := Pit.register pit ~now ~flow:1 ~lo ~hi ~consumer:7;
        waiting := Pit.satisfy pit ~now ~flow:1 ~lo ~hi)
  in
  Alcotest.(check bool) "forwarded" true !forwarded;
  Alcotest.(check int) "one waiter" 1 !waiting;
  Alcotest.(check int) "the registrant" 7 (Pit.waiter pit 0);
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* A warm traced satisfaction under a recorder that only digests (one
   slot, no sink) allocates nothing either: its age is taken inside the
   emitter from the PIT's stamp, so no boxed float crosses over. *)
let test_pit_traced_satisfy_allocates_nothing () =
  let pit = Pit.create ~expiry:1.0 () in
  let range i = (i * 1400, (i + 1) * 1400) in
  let trace = Leotp_net.Trace.create ~capacity:1 () in
  let waiting = ref 0 in
  let w =
    Leotp_net.Trace.with_recorder trace ~clock:(fun () -> 0.5) (fun () ->
        for i = 0 to 9 do
          let lo, hi = range i in
          ignore (Pit.register pit ~now:0.5 ~flow:1 ~lo ~hi ~consumer:7);
          ignore (Pit.satisfy pit ~now:0.5 ~flow:1 ~lo ~hi)
        done;
        let lo, hi = range 20 in
        let now = 0.75 in
        ignore (Pit.register pit ~now:0.25 ~flow:1 ~lo ~hi ~consumer:7);
        minor_words (fun () -> waiting := Pit.satisfy pit ~now ~flow:1 ~lo ~hi))
  in
  Alcotest.(check int) "one waiter" 1 !waiting;
  Alcotest.(check int) "every event digested" 22 (Leotp_net.Trace.count trace);
  Alcotest.(check (float 0.0)) "words" 0.0 w

let data_packet i =
  Wire.data_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:(i * 1400)
    ~hi:((i + 1) * 1400) ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0
    ~retx:false

(* A warm push of new Data that drains at once allocates nothing: the
   name goes into the dedup table and out again as the packet leaves. *)
let test_send_buffer_push_allocates_nothing () =
  let engine = Engine.create () in
  let sent = ref 0 in
  let sb =
    Send_buffer.create engine ~config
      ~send:(fun pkt ->
        incr sent;
        Leotp_net.Packet_pool.release pkt)
      ()
  in
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:1e9;
  for i = 0 to 9 do
    ignore (Send_buffer.push sb (data_packet i))
  done;
  Engine.run ~until:1.0 engine;
  let pkt = data_packet 10 in
  let w = minor_words (fun () -> ignore (Send_buffer.push sb pkt)) in
  Alcotest.(check int) "all drained" 11 !sent;
  Alcotest.(check int) "buffer empty" 0 (Send_buffer.len sb);
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* Absorbing a duplicate of a queued range allocates nothing. *)
let test_send_buffer_duplicate_allocates_nothing () =
  let engine = Engine.create () in
  let sb =
    Send_buffer.create engine ~config ~send:Leotp_net.Packet_pool.release ()
  in
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:0.0;
  for i = 0 to 3 do
    ignore (Send_buffer.push sb (data_packet i))
  done;
  let queued = Send_buffer.len sb in
  let dup = data_packet 3 in
  let absorbed = ref false in
  let w = minor_words (fun () -> absorbed := Send_buffer.push sb dup) in
  Alcotest.(check bool) "absorbed" true !absorbed;
  Alcotest.(check int) "nothing queued" queued (Send_buffer.len sb);
  Alcotest.(check (float 0.0)) "words" 0.0 w;
  Send_buffer.clear sb

(* Writing eq (10) into an Interest allocates nothing once both windowed
   filters hold samples. *)
let test_advertise_allocates_nothing () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  for i = 1 to 50 do
    hop_data cc ~now:(0.02 *. float_of_int i) ~interest_owd:0.01
      ~data_owd:0.01 ~bytes:14_000
  done;
  let p =
    Wire.interest_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:0 ~hi:1400
      ~timestamp:0.0 ~send_rate:0.0 ~retx:false
  in
  let now = 1.0 and next_hop_rate = 1e6 in
  let w =
    minor_words (fun () ->
        advertise cc ~now ~buffer_len:5_000 ~next_hop_rate p)
  in
  Alcotest.(check bool) "a positive rate" true (f_slot p Wire.send_rate_slot > 0.0);
  Alcotest.(check (float 0.0)) "words" 0.0 w;
  Leotp_net.Packet_pool.release p

(* Byte-set model of the cache: blocks keyed by (flow, block index),
   most recently used first, each with its present bytes and its
   (start, first_sent, retx) insertions, newest first. *)
module Cache_model = struct
  type block = { present : bool array; mutable meta : (int * float * bool) list }

  type t = {
    bs : int;
    capacity : int;
    meta_cap : int;
    mutable blocks : ((int * int) * block) list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create (config : Config.t) =
    {
      bs = config.Config.cache_block;
      capacity = config.Config.cache_capacity;
      meta_cap = (config.Config.cache_block / config.Config.mss) + 2;
      blocks = [];
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let count a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

  let used m =
    List.fold_left (fun n (_, blk) -> n + count blk.present) 0 m.blocks

  let touch m key blk = m.blocks <- (key, blk) :: List.remove_assoc key m.blocks

  let rec evict m =
    if used m > m.capacity then
      match List.rev m.blocks with
      | (key, _) :: _ ->
        m.blocks <- List.remove_assoc key m.blocks;
        m.evictions <- m.evictions + 1;
        evict m
      | [] -> ()

  let insert m ~flow ~lo ~hi ~first_sent ~retx =
    if hi > lo then begin
      for b = lo / m.bs to (hi - 1) / m.bs do
        let key = (flow, b) in
        let blk =
          match List.assoc_opt key m.blocks with
          | Some blk -> blk
          | None -> { present = Array.make m.bs false; meta = [] }
        in
        touch m key blk;
        let blo = max lo (b * m.bs) and bhi = min hi ((b + 1) * m.bs) in
        for x = blo to bhi - 1 do
          blk.present.(x - (b * m.bs)) <- true
        done;
        blk.meta <-
          List.filteri
            (fun i _ -> i < m.meta_cap)
            ((blo, first_sent, retx) :: blk.meta)
      done;
      evict m
    end

  (* Blocks in order until the first one missing or not covering its
     slice, touching each one visited when [touch]. *)
  let covered m ~touch:tch ~flow ~lo ~hi =
    let rec go b =
      b > (hi - 1) / m.bs
      ||
      match List.assoc_opt (flow, b) m.blocks with
      | None -> false
      | Some blk ->
        if tch then touch m (flow, b) blk;
        let base = b * m.bs in
        let ok = ref true in
        for x = max lo base to min hi (base + m.bs) - 1 do
          if not blk.present.(x - base) then ok := false
        done;
        !ok && go (b + 1)
    in
    go (lo / m.bs)

  let lookup m ~flow ~lo ~hi =
    if covered m ~touch:true ~flow ~lo ~hi then begin
      m.hits <- m.hits + 1;
      let b0 = lo / m.bs in
      let meta =
        if b0 > (hi - 1) / m.bs then []
        else (List.assoc (flow, b0) m.blocks).meta
      in
      let lo = max lo (b0 * m.bs) in
      let best =
        List.fold_left
          (fun best ((s, _, _) as e) ->
            match best with
            | Some (bs, _, _) when s <= bs -> best
            | _ when s <= lo -> Some e
            | _ -> best)
          None meta
      in
      match (best, meta) with
      | Some (_, fs, r), _ | None, (_, fs, r) :: _ -> Some (fs, r)
      | None, [] -> Some (0.0, false)
    end
    else begin
      m.misses <- m.misses + 1;
      None
    end

  let contains m ~flow ~lo ~hi = covered m ~touch:false ~flow ~lo ~hi
  let drop_flow m ~flow =
    m.blocks <- List.filter (fun ((f, _), _) -> f <> flow) m.blocks

  let clear m = m.blocks <- []

  (* Maximal runs of present and of missing bytes, absolute. *)
  let runs m (flow, b) =
    match List.assoc_opt (flow, b) m.blocks with
    | None -> ([], [ (b * m.bs, (b + 1) * m.bs) ])
    | Some blk ->
      let base = b * m.bs in
      let rec go x acc_in acc_out =
        if x = m.bs then (List.rev acc_in, List.rev acc_out)
        else begin
          let v = blk.present.(x) in
          let y = ref x in
          while !y < m.bs && blk.present.(!y) = v do
            incr y
          done;
          let run = (base + x, base + !y) in
          if v then go !y (run :: acc_in) acc_out else go !y acc_in (run :: acc_out)
        end
      in
      go 0 [] []
end

type cache_op =
  | C_insert of int * int * int * bool  (** flow, lo, hi, retx *)
  | C_lookup of int * int * int
  | C_contains of int * int * int
  | C_drop of int
  | C_clear

let show_cache_op = function
  | C_insert (f, lo, hi, r) ->
    Printf.sprintf "insert %d [%d,%d)%s" f lo hi (if r then " retx" else "")
  | C_lookup (f, lo, hi) -> Printf.sprintf "lookup %d [%d,%d)" f lo hi
  | C_contains (f, lo, hi) -> Printf.sprintf "contains %d [%d,%d)" f lo hi
  | C_drop f -> Printf.sprintf "drop %d" f
  | C_clear -> "clear"

let cache_flows = 3
let cache_span = 6 * config.Config.cache_block

(* MSS-aligned ranges (what the protocol inserts) and arbitrary ones,
   overlapping and spanning blocks; queries may be empty. *)
let cache_range ~min_len =
  let open QCheck2.Gen in
  let mss = config.Config.mss in
  oneof
    [
      map2
        (fun k n -> (k * mss, (k + n) * mss))
        (int_bound ((cache_span / mss) - 3))
        (int_range 1 3);
      map2
        (fun lo n -> (lo, lo + n))
        (int_bound (cache_span - 1))
        (int_range min_len 6000);
    ]

let cache_op_gen =
  let open QCheck2.Gen in
  let flow = int_range 1 cache_flows in
  frequency
    [
      ( 6,
        map3
          (fun f (lo, hi) r -> C_insert (f, lo, hi, r))
          flow (cache_range ~min_len:1) bool );
      ( 4,
        map2 (fun f (lo, hi) -> C_lookup (f, lo, hi)) flow
          (cache_range ~min_len:0) );
      ( 2,
        map2 (fun f (lo, hi) -> C_contains (f, lo, hi)) flow
          (cache_range ~min_len:0) );
      (1, map (fun f -> C_drop f) flow);
      (1, pure C_clear);
    ]

let cache_model_prop =
  let open QCheck2 in
  let bs = config.Config.cache_block in
  Test.make ~name:"cache lookup consistent with inserted ranges" ~count:300
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map show_cache_op ops)))
    Gen.(
      pair
        (oneof [ pure config.Config.cache_capacity; int_range bs (5 * bs) ])
        (list_size (int_range 1 60) cache_op_gen))
    (fun (capacity, ops) ->
      let config = { config with Config.cache_capacity = capacity } in
      let c = Cache.create ~config () and m = Cache_model.create config in
      let fail fmt = Printf.ksprintf (fun s -> Test.fail_report s) fmt in
      (* Every run of the model is cached and the first and last byte of
         every gap is not; with equal [used_bytes] the byte sets agree. *)
      let check_resident () =
        for flow = 1 to cache_flows do
          for b = 0 to (cache_span / bs) - 1 do
            let present, missing = Cache_model.runs m (flow, b) in
            List.iter
              (fun (lo, hi) ->
                if not (Cache.contains c ~flow ~lo ~hi) then
                  fail "flow %d [%d,%d) should be cached" flow lo hi)
              present;
            List.iter
              (fun (lo, hi) ->
                if Cache.contains c ~flow ~lo ~hi:(lo + 1)
                   || Cache.contains c ~flow ~lo:(hi - 1) ~hi
                then fail "flow %d gap [%d,%d) should not be cached" flow lo hi)
              missing
          done
        done
      in
      List.iteri
        (fun i op ->
          (match op with
          | C_insert (flow, lo, hi, retx) ->
            let first_sent = float_of_int i in
            cache_insert c ~flow ~lo ~hi ~first_sent ~retx;
            Cache_model.insert m ~flow ~lo ~hi ~first_sent ~retx
          | C_lookup (flow, lo, hi) ->
            let got = Cache.lookup c ~flow ~lo ~hi
            and want = Cache_model.lookup m ~flow ~lo ~hi in
            if got <> want then fail "op %d: lookup differs" i
          | C_contains (flow, lo, hi) ->
            if Cache.contains c ~flow ~lo ~hi <> Cache_model.contains m ~flow ~lo ~hi
            then fail "op %d: contains differs" i
          | C_drop flow ->
            Cache.drop_flow c ~flow;
            Cache_model.drop_flow m ~flow
          | C_clear ->
            Cache.clear c;
            Cache_model.clear m);
          let st = Cache.stats c in
          if Cache.used_bytes c <> Cache_model.used m then
            fail "op %d: used_bytes %d, model %d" i (Cache.used_bytes c)
              (Cache_model.used m);
          if (st.Cache.hits, st.Cache.misses, st.Cache.evictions)
             <> (m.Cache_model.hits, m.Cache_model.misses, m.Cache_model.evictions)
          then fail "op %d: stats differ" i;
          check_resident ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* The cache's LRU of blocks *)

let block = config.Config.cache_block

(* Whole blocks [b] of [flow]; [first_sent] tells the insertions apart. *)
let put c ~flow b =
  cache_insert c ~flow ~lo:(b * block) ~hi:((b + 1) * block)
    ~first_sent:(float_of_int ((10 * flow) + b)) ~retx:false

let find c ~flow b = Cache.lookup c ~flow ~lo:(b * block) ~hi:((b + 1) * block)
let resident c ~flow b = Cache.contains c ~flow ~lo:(b * block) ~hi:((b + 1) * block)

let test_lru_basic () =
  let c = Cache.create ~config () in
  List.iter (fun flow -> put c ~flow 0) [ 1; 2; 3 ];
  Alcotest.(check int) "three blocks" (3 * block) (Cache.used_bytes c);
  let meta = Alcotest.(option (pair (float 0.0) bool)) in
  Alcotest.check meta "find" (Some (20.0, false)) (find c ~flow:2 0);
  Alcotest.(check bool) "contains" true (resident c ~flow:1 0);
  Alcotest.check meta "missing" None (find c ~flow:9 0);
  let st = Cache.stats c in
  Alcotest.(check (pair int int))
    "contains counts nothing" (1, 1)
    (st.Cache.hits, st.Cache.misses)

let test_lru_eviction_order () =
  let c =
    Cache.create ~config:{ config with Config.cache_capacity = 3 * block } ()
  in
  List.iter (put c ~flow:1) [ 0; 1; 2 ];
  (* Touch block 0: now block 1 is the least recently used. *)
  ignore (find c ~flow:1 0);
  let left () = List.filter (resident c ~flow:1) [ 0; 1; 2; 3; 4; 5 ] in
  put c ~flow:1 3;
  Alcotest.(check (list int)) "evicts 1" [ 0; 2; 3 ] (left ());
  put c ~flow:1 4;
  Alcotest.(check (list int)) "then 2" [ 0; 3; 4 ] (left ());
  put c ~flow:1 5;
  Alcotest.(check (list int)) "then 0" [ 3; 4; 5 ] (left ());
  Alcotest.(check int) "evictions" 3 (Cache.stats c).Cache.evictions;
  (* [contains] does not touch: block 3 stays the least recently used. *)
  ignore (resident c ~flow:1 3);
  put c ~flow:1 6;
  Alcotest.(check (list int)) "then 3" [ 4; 5 ] (left ())

let test_lru_replace () =
  let c = Cache.create ~config () in
  cache_insert c ~flow:1 ~lo:0 ~hi:1400 ~first_sent:1.0 ~retx:false;
  cache_insert c ~flow:1 ~lo:0 ~hi:1400 ~first_sent:2.0 ~retx:true;
  Alcotest.(check int) "no duplicate bytes" 1400 (Cache.used_bytes c);
  Alcotest.(check (option (pair (float 0.0) bool)))
    "newest insertion" (Some (2.0, true))
    (Cache.lookup c ~flow:1 ~lo:0 ~hi:1400);
  Cache.drop_flow c ~flow:1;
  Alcotest.(check int) "removed" 0 (Cache.used_bytes c);
  Alcotest.(check bool) "gone" false (Cache.contains c ~flow:1 ~lo:0 ~hi:1);
  Cache.drop_flow c ~flow:1 (* idempotent *);
  Alcotest.(check int) "still empty" 0 (Cache.used_bytes c)

let lru_model_prop =
  let open QCheck2 in
  let slots = 4 in
  Test.make ~name:"lru matches a naive model" ~count:200
    Gen.(list_size (int_range 1 80)
           (triple
              (frequency
                 [
                   (4, return `Put);
                   (3, return `Find);
                   (1, return `Drop);
                   (1, return `Clear);
                 ])
              (int_range 1 2) (int_range 0 9)))
    (fun ops ->
      let c =
        Cache.create
          ~config:{ config with Config.cache_capacity = slots * block }
          ()
      in
      (* Model: resident (flow, block) keys, most recent first. *)
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, flow, b) ->
          let key = (flow, b) in
          match op with
          | `Put ->
            put c ~flow b;
            model :=
              List.filteri
                (fun i _ -> i < slots)
                (key :: List.filter (( <> ) key) !model)
          | `Find ->
            let hit = find c ~flow b <> None in
            if hit <> List.mem key !model then ok := false;
            if hit then model := key :: List.filter (( <> ) key) !model
          | `Drop ->
            Cache.drop_flow c ~flow;
            model := List.filter (fun (f, _) -> f <> flow) !model
          | `Clear ->
            Cache.clear c;
            model := [])
        ops;
      !ok
      && Cache.used_bytes c = block * List.length !model
      && List.for_all
           (fun flow ->
             List.for_all
               (fun b -> resident c ~flow b = List.mem (flow, b) !model)
               (List.init 10 Fun.id))
           [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* SHR: Algorithm 1 *)

let mss = config.Config.mss

let test_shr_in_sequence () =
  let shr = Shr.create ~config in
  let a1 = Shr.on_packet shr ~lo:0 ~hi:mss in
  Alcotest.(check bool) "no holes" true (a1.Shr.new_holes = [] && a1.Shr.expired_holes = []);
  let a2 = Shr.on_packet shr ~lo:mss ~hi:(2 * mss) in
  Alcotest.(check bool) "still none" true (a2.Shr.new_holes = []);
  Alcotest.(check int) "lastByte" (2 * mss) (Shr.last_byte shr)

let test_shr_fig8b () =
  (* The paper's Fig 8b walk-through: packets 1..5, packet 2 lost.
     N = 3 (default): receipt of 3 detects the hole; packets 4, 5 and one
     more skip it; after count > N an Interest is issued. *)
  let shr = Shr.create ~config in
  let p n = (n * mss, (n + 1) * mss) in
  ignore (Shr.on_packet shr ~lo:(fst (p 0)) ~hi:(snd (p 0)));
  (* packet 2 (index 1) lost; packet 3 (index 2) arrives. *)
  let a3 = Shr.on_packet shr ~lo:(fst (p 2)) ~hi:(snd (p 2)) in
  Alcotest.(check (list (pair int int)))
    "hole detected -> VPH range"
    [ (mss, 2 * mss) ]
    a3.Shr.new_holes;
  Alcotest.(check bool) "not yet expired" true (a3.Shr.expired_holes = []);
  let a4 = Shr.on_packet shr ~lo:(fst (p 3)) ~hi:(snd (p 3)) in
  Alcotest.(check bool) "count 1" true (a4.Shr.expired_holes = []);
  let a5 = Shr.on_packet shr ~lo:(fst (p 4)) ~hi:(snd (p 4)) in
  Alcotest.(check bool) "count 2" true (a5.Shr.expired_holes = []);
  let a6 = Shr.on_packet shr ~lo:(fst (p 5)) ~hi:(snd (p 5)) in
  Alcotest.(check bool) "count 3" true (a6.Shr.expired_holes = []);
  let a7 = Shr.on_packet shr ~lo:(fst (p 6)) ~hi:(snd (p 6)) in
  Alcotest.(check (list (pair int int)))
    "count > N: retransmission Interest"
    [ (mss, 2 * mss) ]
    a7.Shr.expired_holes;
  Alcotest.(check bool) "hole dropped after request" true (Shr.pending_holes shr = [])

let test_shr_retransmission_fills_hole () =
  let shr = Shr.create ~config in
  ignore (Shr.on_packet shr ~lo:0 ~hi:mss);
  ignore (Shr.on_packet shr ~lo:(2 * mss) ~hi:(3 * mss));
  Alcotest.(check int) "one hole" 1 (List.length (Shr.pending_holes shr));
  (* The lost packet arrives late (case 3: rs < lastByte). *)
  let a = Shr.on_packet shr ~lo:mss ~hi:(2 * mss) in
  Alcotest.(check bool) "no new holes" true (a.Shr.new_holes = []);
  Alcotest.(check bool) "hole deleted" true (Shr.pending_holes shr = [])

let test_shr_partial_fill_splits () =
  let shr = Shr.create ~config in
  ignore (Shr.on_packet shr ~lo:0 ~hi:100);
  ignore (Shr.on_packet shr ~lo:400 ~hi:500);
  (* hole [100,400); fill [200,300) -> holes [100,200) and [300,400). *)
  ignore (Shr.on_packet shr ~lo:200 ~hi:300);
  Alcotest.(check (list (pair int int)))
    "split"
    [ (100, 200); (300, 400) ]
    (List.map (fun (lo, hi, _) -> (lo, hi)) (Shr.pending_holes shr))

let test_shr_vph_suppression () =
  (* A downstream node that processes a VPH for the hole range must not
     detect the hole itself: feeding the VPH through on_packet covers the
     sequence space. *)
  let shr = Shr.create ~config in
  ignore (Shr.on_packet shr ~lo:0 ~hi:mss);
  (* VPH for [mss, 2*mss) arrives before packet 3. *)
  ignore (Shr.on_packet shr ~lo:mss ~hi:(2 * mss));
  let a = Shr.on_packet shr ~lo:(2 * mss) ~hi:(3 * mss) in
  Alcotest.(check bool) "no hole seen downstream" true (a.Shr.new_holes = []);
  Alcotest.(check bool) "no pending holes" true (Shr.pending_holes shr = [])

let shr_no_false_loss_prop =
  let open QCheck2 in
  Test.make ~name:"SHR never requests data that arrived" ~count:200
    Gen.(list_size (int_range 1 40) (int_range 0 19))
    (fun order ->
      (* Deliver packets in an arbitrary order (with duplicates); collect
         every retransmission request; each requested range must be one
         that had genuinely not arrived before its request. *)
      let shr = Shr.create ~config in
      let arrived = Array.make 20 false in
      List.for_all
        (fun idx ->
          let lo = idx * mss and hi = (idx + 1) * mss in
          let acts = Shr.on_packet shr ~lo ~hi in
          arrived.(idx) <- true;
          List.for_all
            (fun (rlo, rhi) ->
              (* every mss-slot in the requested hole is un-arrived *)
              let ok = ref true in
              let s = ref rlo in
              while !s < rhi do
                if arrived.(!s / mss) then ok := false;
                s := !s + mss
              done;
              !ok)
            acts.Shr.expired_holes)
        order)

(* ------------------------------------------------------------------ *)
(* Hop CC and backpressure *)

let feed_cc cc ~n ~rtt ~bytes ~start =
  for i = 1 to n do
    hop_data cc
      ~now:(start +. (rtt *. float_of_int i))
      ~interest_owd:(rtt /. 2.0) ~data_owd:(rtt /. 2.0) ~bytes
  done

let test_hop_cc_slow_start_growth () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  let w0 = cwnd cc in
  feed_cc cc ~n:5 ~rtt:0.02 ~bytes:14000 ~start:0.0;
  Alcotest.(check bool) "doubling" true (cwnd cc > 4.0 *. w0)

let test_hop_cc_congestion_cut () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  (* Converge at 1 MB/s, 20 ms. *)
  feed_cc cc ~n:100 ~rtt:0.02 ~bytes:20_000 ~start:0.0;
  let w = cwnd cc in
  (* Now inflate the RTT: queue estimate exceeds M and cwnd drops to
     k*BDP. *)
  for i = 1 to 60 do
    hop_data cc
      ~now:(2.0 +. (0.08 *. float_of_int i))
      ~interest_owd:0.04 ~data_owd:0.04 ~bytes:60_000
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cut (%.0f -> %.0f)" w (cwnd cc))
    true
    (cwnd cc < w);
  Alcotest.(check bool) "left slow start" true (not (Hop_cc.in_slow_start cc))

let test_hop_cc_queue_estimate () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  feed_cc cc ~n:50 ~rtt:0.02 ~bytes:20_000 ~start:0.0;
  (* ~1 MB/s at baseline 20 ms: no queue. *)
  Alcotest.(check bool) "no queue at baseline" true (Hop_cc.queue_len cc ~now:1.0 < 10_000.0)

(* Eq (10) as a Midnode advertises it, read back from the Interest. *)
let advertised cc ~now ~buffer_len ~next_hop_rate =
  let p =
    Wire.interest_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:0 ~hi:1400
      ~timestamp:0.0 ~send_rate:0.0 ~retx:false
  in
  advertise cc ~now ~buffer_len ~next_hop_rate p;
  let rate = f_slot p Wire.send_rate_slot in
  Leotp_net.Packet_pool.release p;
  rate

let test_backpressure_signs () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  feed_cc cc ~n:50 ~rtt:0.02 ~bytes:20_000 ~start:0.0;
  let empty =
    advertised cc ~now:1.0 ~buffer_len:0 ~next_hop_rate:1_000_000.0
  in
  let full =
    advertised cc ~now:1.0
      ~buffer_len:(10 * config.Config.bl_target)
      ~next_hop_rate:1_000_000.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "backlog lowers the advertised rate (%.0f < %.0f)" full empty)
    true (full < empty);
  Alcotest.(check bool) "never negative" true (full >= 0.0)

let test_backpressure_formula () =
  (* Direct check of eq (9) with the draining sign. *)
  let r =
    Hop_cc.rate_bp ~config ~buffer_len:config.Config.bl_target
      ~next_hop_rate:500_000.0 ~hop_rtt:0.02
  in
  Alcotest.(check (float 1e-6)) "at target: rate = next hop rate" 500_000.0 r;
  let low =
    Hop_cc.rate_bp ~config ~buffer_len:(2 * config.Config.bl_target)
      ~next_hop_rate:500_000.0 ~hop_rtt:0.02
  in
  (* 500 KB/s - 40 KB / 20 ms would be negative: clamped to a full stop. *)
  Alcotest.(check (float 1e-6)) "above target: clamped drain" 0.0 low;
  let mild =
    Hop_cc.rate_bp ~config
      ~buffer_len:(config.Config.bl_target + 4_000)
      ~next_hop_rate:500_000.0 ~hop_rtt:0.02
  in
  Alcotest.(check (float 1e-6))
    "slightly above target: drain the excess"
    (500_000.0 -. (4_000.0 /. 0.02))
    mild

(* ------------------------------------------------------------------ *)
(* Send buffer *)

let test_send_buffer_rate_limit () =
  let engine = Engine.create () in
  let sent = ref [] in
  let sb =
    Send_buffer.create engine ~config
      ~send:(fun pkt -> sent := (Engine.now engine, pkt) :: !sent)
      ()
  in
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:14_150.0;
  (* 10 packets of 1415 B at 14150 B/s: ~1 per 100 ms after the burst. *)
  for i = 0 to 9 do
    ignore
      (Send_buffer.push sb
         (Wire.data_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:(i * 1400)
            ~hi:((i + 1) * 1400) ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0
            ~retx:false))
  done;
  Engine.run engine;
  Alcotest.(check int) "all sent" 10 (List.length !sent);
  let t_last = match !sent with (ts, _) :: _ -> ts | [] -> 0.0 in
  Alcotest.(check bool)
    (Printf.sprintf "paced over ~0.8s+ (%.2f)" t_last)
    true (t_last > 0.7)

let test_send_buffer_dedup () =
  let engine = Engine.create () in
  let sent = ref 0 in
  let sb = Send_buffer.create engine ~config ~send:(fun _ -> incr sent) () in
  let pkt lo =
    Wire.data_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo ~hi:(lo + 1400)
      ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0 ~retx:false
  in
  (* Drain the initial token burst so subsequent pushes stay queued. *)
  ignore (Send_buffer.push sb (pkt 100_000));
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:1_000.0;
  Alcotest.(check bool) "first accepted" true (Send_buffer.push sb (pkt 0));
  Alcotest.(check bool) "dup absorbed" true (Send_buffer.push sb (pkt 0));
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "sent once (plus the flushing packet)" 2 !sent

let test_send_buffer_overflow () =
  let engine = Engine.create () in
  let small = { config with Config.send_buffer_capacity = 3000 } in
  let sb = Send_buffer.create engine ~config:small ~send:(fun _ -> ()) () in
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:1.0;
  let push i =
    Send_buffer.push sb
      (Wire.data_packet ~config:small ~src:1 ~dst:2 ~flow:1 ~lo:(i * 1400)
         ~hi:((i + 1) * 1400) ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0
         ~retx:false)
  in
  (* The initial token burst lets the first packet leave immediately;
     after that the queue holds two packets (2830 <= 3000) and the next
     push overflows. *)
  ignore (push 0);
  ignore (push 1);
  ignore (push 2);
  Alcotest.(check bool) "fourth dropped" false (push 3);
  Alcotest.(check int) "drop counted" 1 (Send_buffer.drops sb)

(* A paused buffer restarts on the next Interest's rate, and what that
   rate releases carries the Interest's own OWD. *)
let test_send_buffer_interest_owd () =
  let engine = Engine.create () in
  let sent = ref [] in
  let sb =
    Send_buffer.create engine ~config
      ~send:(fun pkt -> sent := f_slot pkt Wire.req_owd_slot :: !sent)
      ()
  in
  on_interest sb ~now:0.0 ~timestamp:0.0 ~send_rate:0.0;
  for i = 0 to 1 do
    ignore
      (Send_buffer.push sb
         (Wire.data_packet ~config ~src:1 ~dst:2 ~flow:1 ~lo:(i * 1400)
            ~hi:((i + 1) * 1400) ~timestamp:0.0 ~req_owd:0.0 ~first_sent:0.0
            ~retx:false))
  done;
  Alcotest.(check (list (float 0.0))) "burst only, then paused" [ 0.0 ] !sent;
  ignore
    (Engine.schedule engine ~after:1.0 (fun () ->
         on_interest sb ~now:1.0 ~timestamp:0.75 ~send_rate:1e9));
  Engine.run engine;
  Alcotest.(check (list (float 0.0))) "released with this OWD" [ 0.25; 0.0 ]
    !sent;
  Alcotest.(check (float 0.0)) "req_owd" 0.25 (Send_buffer.req_owd sb)

(* ------------------------------------------------------------------ *)
(* Full protocol over a chain *)

let run_leotp ?(hops = 5) ?(bw_mbps = 20.0) ?(delay = 0.01) ?(plr = 0.0)
    ?(bytes = 1_000_000) ?(cfg = config) ?(coverage = 1.0) ?(until = 120.0) ()
    =
  let engine, rng = setup () in
  let spec =
    Topology.hop ~plr ~bandwidth:(Bandwidth.Constant (mbps bw_mbps)) ~delay ()
  in
  let chain = Topology.chain engine ~rng (Array.make hops spec) in
  let session =
    Session.over_chain engine ~config:cfg ~chain ~flow:1 ~total_bytes:bytes
      ~coverage ()
  in
  Session.start session;
  Engine.run ~until engine;
  (session, chain, engine)

(* ------------------------------------------------------------------ *)
(* Endpoints driven by hand *)

(* Two nodes joined by a fast link: [src]'s packets reach [dst]'s
   handler, which records what [record] extracts from each, given the
   arrival time. *)
let endpoint_pair ~record =
  let engine, rng = setup () in
  let src = Node.create ~name:"src" and dst = Node.create ~name:"dst" in
  let d =
    Topology.connect engine ~rng src dst
      (Topology.hop ~bandwidth:(Bandwidth.Constant 1e9) ~delay:1e-6 ())
  in
  Node.add_route src ~dst:(Node.id dst) d.Topology.fwd;
  let got = ref [] in
  Node.set_handler dst (fun pkt ->
      (match record (Engine.now engine) pkt with
      | Some x -> got := x :: !got
      | None -> ());
      Leotp_net.Packet_pool.release pkt);
  (engine, src, dst, got)

(* An expired SHR hole spanning two MSS ranges makes the Consumer
   resend both of its Interests at once, highest range first. *)
let test_consumer_resends_hole_highest_first () =
  let engine, node, producer, got =
    endpoint_pair ~record:(fun _ pkt ->
        if Wire.is_interest pkt then Some (Wire.lo pkt, Wire.hi pkt, Wire.retx pkt)
        else None)
  in
  let consumer =
    Consumer.create engine ~config ~node ~producer:(Node.id producer) ~flow:1
      ~total_bytes:(20 * mss) ()
  in
  Consumer.start consumer;
  Engine.run ~until:0.01 engine;
  let asked = List.rev_map (fun (lo, _, _) -> lo / mss) !got in
  Alcotest.(check (list int)) "initial window" (List.init 10 Fun.id) asked;
  got := [];
  let data k =
    Wire.data_packet ~config ~src:(Node.id producer) ~dst:(Node.id node) ~flow:1
      ~lo:(k * mss) ~hi:((k + 1) * mss) ~timestamp:(Engine.now engine)
      ~req_owd:0.0 ~first_sent:0.0 ~retx:false
  in
  (* Range 0 arrives, 1 and 2 are lost, and 3..7 skip the hole past the
     threshold. *)
  List.iter (fun k -> Consumer.handle_packet consumer (data k)) [ 0; 3; 4; 5; 6; 7 ];
  Engine.run ~until:0.02 engine;
  Alcotest.(check (list (pair int int)))
    "hole resent highest range first"
    [ (2 * mss, 3 * mss); (mss, 2 * mss) ]
    (List.filter_map
       (fun (lo, hi, retx) -> if retx then Some (lo, hi) else None)
       (List.rev !got));
  Alcotest.(check int) "two retransmitted Interests" 2
    (Consumer.interest_retx consumer)

(* Re-served ranges carry the time they were first sent, also for a
   range first served after a higher one, and each counts once as a
   retransmission. *)
let test_producer_keeps_first_sent () =
  let engine, node, consumer, got =
    endpoint_pair ~record:(fun _ pkt ->
        if Wire.is_data pkt then
          Some ((Wire.lo pkt, f_slot pkt Wire.first_sent_slot), Wire.retx pkt)
        else None)
  in
  let metrics = Flow_metrics.create ~flow:1 in
  let producer =
    Producer.create engine ~config ~node ~flow:1 ~total_bytes:(10 * mss) ~metrics ()
  in
  let interest at k =
    ignore
      (Engine.schedule engine ~after:at (fun () ->
           Producer.handle_interest producer
             (Wire.interest_packet ~config ~src:(Node.id consumer)
                ~dst:(Node.id node) ~flow:1 ~lo:(k * mss) ~hi:((k + 1) * mss)
                ~timestamp:at ~send_rate:1e9 ~retx:false)))
  in
  interest 1.0 0;
  interest 2.0 2;
  interest 3.0 1;
  interest 4.0 1;
  interest 5.0 0;
  Engine.run ~until:6.0 engine;
  Alcotest.(check (list (pair (pair int (float 0.0)) bool)))
    "first_sent and retx"
    [
      ((0, 1.0), false);
      ((2 * mss, 2.0), false);
      ((mss, 3.0), false);
      ((mss, 3.0), true);
      ((0, 1.0), true);
    ]
    (List.rev !got);
  Alcotest.(check int) "retransmissions" 2 (Flow_metrics.retransmissions metrics)

(* A Data packet as it reaches the far end of [endpoint_pair]. *)
type arrival = {
  range : int;  (** lo / mss *)
  id : int;
  stamp : float;  (** the wire timestamp *)
  owd : float;  (** the carried req_owd *)
  at : float;  (** arrival time *)
}

let data_pair () =
  endpoint_pair ~record:(fun at pkt ->
      if Wire.is_data pkt then
        Some
          {
            range = Wire.lo pkt / mss;
            id = pkt.Leotp_net.Packet.id;
            stamp = f_slot pkt Wire.timestamp_slot;
            owd = f_slot pkt Wire.req_owd_slot;
            at;
          }
      else None)

(* The next packet id: every id drawn after this call is larger. *)
let next_id () =
  let p =
    Leotp_net.Packet_pool.acquire ~src:0 ~dst:0 ~flow:0 ~size:1
      ~kind:Leotp_net.Packet.kind_raw
  in
  let id = p.Leotp_net.Packet.id in
  Leotp_net.Packet_pool.release p;
  id

(* 10 packets/s: the buffer's 2-MSS burst lets one packet out at once,
   then the rest wait their turn. *)
let slow_rate = 14_150.0

let check_arrivals msg ~ranges ~owds got =
  Alcotest.(check (list int)) (msg ^ ": ranges") ranges
    (List.map (fun a -> a.range) got);
  Alcotest.(check (list (float 1e-9))) (msg ^ ": req_owd") owds
    (List.map (fun a -> a.owd) got)

(* Stamped as it drained: only the fast link's ~12 us lie between the
   wire timestamp and the arrival. *)
let check_stamped_at_drain msg a =
  Alcotest.(check bool)
    (Printf.sprintf "%s: range %d stamped %.6f, arrived %.6f" msg a.range
       a.stamp a.at)
    true
    (a.at -. a.stamp >= 0.0 && a.at -. a.stamp < 1e-4)

(* The sending buffer is the Producer's Responder: Data leaves it with a
   fresh id, stamped with the time it drains and the OWD of the latest
   Interest, however long it waited behind the rate limiter. *)
let test_producer_stamps_at_drain () =
  let engine, node, consumer, got = data_pair () in
  let producer =
    Producer.create engine ~config ~node ~flow:1 ~total_bytes:(10 * mss) ()
  in
  let mark = ref max_int in
  let interest ~at ~sent ~lo ~hi =
    ignore
      (Engine.schedule engine ~after:at (fun () ->
           Producer.handle_interest producer
             (Wire.interest_packet ~config ~src:(Node.id consumer)
                ~dst:(Node.id node) ~flow:1 ~lo:(lo * mss) ~hi:(hi * mss)
                ~timestamp:sent ~send_rate:slow_rate ~retx:false)))
  in
  interest ~at:1.0 ~sent:0.9 ~lo:0 ~hi:3;
  ignore (Engine.schedule engine ~after:1.0 (fun () -> mark := next_id ()));
  interest ~at:1.05 ~sent:1.03 ~lo:3 ~hi:4;
  Engine.run ~until:2.0 engine;
  let got = List.rev !got in
  check_arrivals "producer" ~ranges:[ 0; 1; 2; 3 ]
    ~owds:[ 0.1; 0.1; 0.02; 0.02 ] got;
  List.iter (check_stamped_at_drain "producer") got;
  List.iter
    (fun a ->
      if a.range > 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "range %d waited in the buffer" a.range)
          true (a.stamp > 1.001);
        Alcotest.(check bool)
          (Printf.sprintf "range %d got a fresh id as it drained" a.range)
          true (a.id > !mark)
      end)
    got

(* A Midnode on [endpoint_pair]'s sending side, with helpers that hand
   it an Interest from the far end or a Data from an upstream Producer.
   The Producer is unreachable, so forwarded Interests die there. *)
let producer_id = 99

let midnode_pair cfg =
  let engine, mid, consumer, got = data_pair () in
  let (_ : Midnode.t) = Midnode.create engine ~config:cfg ~node:mid () in
  let at time f = ignore (Engine.schedule engine ~after:time f) in
  let interest ~sent ~lo ~hi =
    Node.receive mid
      (Wire.interest_packet ~config:cfg ~src:(Node.id consumer) ~dst:producer_id
         ~flow:1 ~lo:(lo * mss) ~hi:(hi * mss) ~timestamp:sent
         ~send_rate:slow_rate ~retx:false)
  in
  let data ~lo =
    Node.receive mid
      (Wire.data_packet ~config:cfg ~src:producer_id ~dst:(Node.id consumer)
         ~flow:1 ~lo:(lo * mss) ~hi:((lo + 1) * mss)
         ~timestamp:(Engine.now engine) ~req_owd:0.0 ~first_sent:0.0
         ~retx:false)
  in
  (engine, at, interest, data, got)

(* A midnode's sending buffer is the downstream hop's Responder: passing
   Data leaves it restamped like a Producer's. *)
let test_midnode_stamps_at_drain () =
  let engine, at, interest, data, got = midnode_pair config in
  let mark = ref max_int in
  at 1.0 (fun () ->
      interest ~sent:0.97 ~lo:0 ~hi:1;
      List.iter (fun lo -> data ~lo) [ 0; 1; 2 ];
      mark := next_id ());
  at 1.05 (fun () -> interest ~sent:1.04 ~lo:5 ~hi:6);
  Engine.run ~until:2.0 engine;
  let got = List.rev !got in
  check_arrivals "midnode" ~ranges:[ 0; 1; 2 ] ~owds:[ 0.03; 0.03; 0.01 ] got;
  List.iter (check_stamped_at_drain "midnode") got;
  List.iter
    (fun a ->
      if a.range > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "range %d got a fresh id as it drained" a.range)
          true (a.id > !mark))
    got

(* Three ranges pass the midnode at 0.5 s, then an Interest stamped
   0.53 s asks for the first two again at 0.55 s: a cache hit. *)
let cache_hit_arrivals cfg =
  let engine, at, interest, data, got = midnode_pair cfg in
  at 0.5 (fun () -> List.iter (fun lo -> data ~lo) [ 0; 1; 2 ]);
  at 0.55 (fun () -> interest ~sent:0.53 ~lo:0 ~hi:2);
  Engine.run ~until:2.0 engine;
  match List.rev !got with
  | [ a0; a1; a2; h0; h1 ] ->
    Alcotest.(check (list int)) "ranges" [ 0; 1; 2; 0; 1 ]
      (List.map (fun a -> a.range) [ a0; a1; a2; h0; h1 ]);
    (a2, h0, h1)
  | got -> Alcotest.failf "expected 5 Data, got %d" (List.length got)

(* Under hop-by-hop control the hit joins the sending buffer behind the
   range still queued there, paced at the Interest's rate and restamped
   as it drains. *)
let test_cache_hit_full () =
  let queued, h0, h1 = cache_hit_arrivals config in
  Alcotest.(check bool) "queued behind range 2" true (h0.at > queued.at);
  List.iter (check_stamped_at_drain "hit") [ h0; h1 ];
  Alcotest.(check bool)
    (Printf.sprintf "paced: %.4f s apart" (h1.stamp -. h0.stamp))
    true
    (h1.stamp -. h0.stamp > 0.09);
  Alcotest.(check (list (float 1e-9))) "downstream Interest OWD" [ 0.02; 0.02 ]
    [ h0.owd; h1.owd ]

(* Under end-to-end control (ablation C) the hit leaves at once with the
   Interest's own timestamp and OWD. *)
let test_cache_hit_e2e () =
  let _, h0, h1 =
    cache_hit_arrivals (Config.with_ablation Config.E2e_cc config)
  in
  Alcotest.(check (list (float 1e-9))) "Interest's timestamp" [ 0.53; 0.53 ]
    [ h0.stamp; h1.stamp ];
  Alcotest.(check (list (float 1e-9))) "Interest's OWD" [ 0.02; 0.02 ]
    [ h0.owd; h1.owd ];
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "range %d left at once (%.6f)" a.range a.at)
        true
        (a.at < 0.55 +. 1e-4))
    [ h0; h1 ]

let test_transfer_completes () =
  let session, _, _ = run_leotp () in
  Alcotest.(check bool) "complete" true (Consumer.complete session.Session.consumer);
  Alcotest.(check int)
    "delivered" 1_000_000
    (Flow_metrics.app_bytes session.Session.metrics)

let test_transfer_under_loss () =
  let session, _, _ = run_leotp ~plr:0.01 () in
  Alcotest.(check bool) "complete with 1%/hop" true
    (Consumer.complete session.Session.consumer);
  Alcotest.(check int)
    "every byte exactly once" 1_000_000
    (Flow_metrics.app_bytes session.Session.metrics)

let test_in_network_retransmission_active () =
  let session, _, _ = run_leotp ~plr:0.02 ~bytes:2_000_000 () in
  let shr_total =
    List.fold_left
      (fun acc m ->
        match Midnode.flow_stats m ~flow:1 with
        | Some fs -> acc + fs.Midnode.shr_interests
        | None -> acc)
      0 session.Session.midnodes
  in
  let vph_total =
    List.fold_left
      (fun acc m ->
        match Midnode.flow_stats m ~flow:1 with
        | Some fs -> acc + fs.Midnode.vph_sent
        | None -> acc)
      0 session.Session.midnodes
  in
  let hits =
    List.fold_left
      (fun acc m -> acc + (Cache.stats (Midnode.cache m)).Cache.hits)
      0 session.Session.midnodes
  in
  Alcotest.(check bool) "SHR interests issued" true (shr_total > 0);
  Alcotest.(check bool) "VPH notifications sent" true (vph_total > 0);
  Alcotest.(check bool) "cache hits served repairs" true (hits > 0)

let test_owd_floor () =
  let session, _, _ = run_leotp ~bytes:500_000 () in
  (* 5 hops x 10 ms propagation. *)
  Alcotest.(check bool)
    "OWD >= one-way propagation" true
    (Leotp_util.Stats.min (Flow_metrics.owd session.Session.metrics) >= 0.05)

let test_e2e_mode_no_midnodes () =
  let cfg = Config.with_ablation Config.No_midnodes config in
  let session, _, _ = run_leotp ~cfg ~bytes:500_000 ~plr:0.01 () in
  Alcotest.(check bool) "TR alone still reliable" true
    (Consumer.complete session.Session.consumer);
  Alcotest.(check (list int))
    "no midnodes" []
    (List.map (fun _ -> 0) session.Session.midnodes)

let test_ablation_throughput_order () =
  (* Table II: A (full) should beat D (no midnodes) in throughput under
     loss on a long path. *)
  let time cfg =
    let session, _, _ =
      run_leotp ~cfg ~hops:6 ~plr:0.01 ~bytes:2_000_000 ~until:300.0 ()
    in
    match Flow_metrics.completion_time session.Session.metrics with
    | Some ct -> ct
    | None -> 300.0
  in
  let t_full = time config in
  let t_none = time (Config.with_ablation Config.No_midnodes config) in
  Alcotest.(check bool)
    (Printf.sprintf "full %.1fs faster than none %.1fs" t_full t_none)
    true (t_full < t_none)

let test_partial_coverage_still_works () =
  let session, _, _ =
    run_leotp ~hops:8 ~coverage:0.25 ~plr:0.01 ~bytes:1_000_000 ~until:300.0 ()
  in
  Alcotest.(check bool) "complete at 25% coverage" true
    (Consumer.complete session.Session.consumer);
  Alcotest.(check int) "two midnodes placed" 2
    (List.length session.Session.midnodes)

let test_dedup_no_duplicate_delivery () =
  (* Aggressive loss forces many retransmissions; the application must
     still see each byte exactly once. *)
  let session, _, _ =
    run_leotp ~hops:3 ~plr:0.05 ~bytes:300_000 ~until:300.0 ()
  in
  Alcotest.(check bool) "complete" true (Consumer.complete session.Session.consumer);
  Alcotest.(check int) "exact bytes" 300_000
    (Flow_metrics.app_bytes session.Session.metrics)

(* End-to-end reliability property: random loss rates, hop counts,
   coverage and ablations — the transfer must complete exactly. *)
let reliability_prop =
  let open QCheck2 in
  Test.make ~name:"LEOTP delivers the exact byte stream" ~count:12
    Gen.(
      quad (int_range 1 5) (float_range 0.0 0.03)
        (oneofl [ 1.0; 0.5 ])
        (oneofl [ Config.Full; Config.No_cache; Config.E2e_cc; Config.No_midnodes ]))
    (fun (hops, plr, coverage, ablation) ->
      let cfg = Config.with_ablation ablation config in
      let bytes = 200_000 in
      let session, _, _ =
        run_leotp ~hops ~plr ~coverage ~cfg ~bytes ~until:600.0 ()
      in
      Consumer.complete session.Session.consumer
      && Flow_metrics.app_bytes session.Session.metrics = bytes)

let test_reliability_under_link_switching () =
  let engine, rng = setup () in
  let mk d = { Leotp_net.Dynamic_path.delay = d; bandwidth = Bandwidth.Constant (mbps 20.0); plr = 0.005 } in
  let dp =
    Leotp_net.Dynamic_path.create engine ~rng ~max_hops:4
      ~initial:[| mk 0.01; mk 0.01; mk 0.01; mk 0.01 |]
      ()
  in
  (* Alternate hop delays every second: in-flight packets drop. *)
  let rec reconfig i =
    if i < 60 then begin
      let d = if i mod 2 = 0 then 0.012 else 0.01 in
      ignore
        (Engine.schedule_at engine ~time:(float_of_int i) (fun () ->
             Leotp_net.Dynamic_path.apply dp [| mk d; mk d; mk d; mk d |]));
      reconfig (i + 1)
    end
  in
  reconfig 1;
  let session =
    Session.over_chain engine ~config
      ~chain:(Leotp_net.Dynamic_path.chain dp)
      ~flow:1 ~total_bytes:1_000_000 ()
  in
  Session.start session;
  Engine.run ~until:600.0 engine;
  Alcotest.(check bool) "complete across switches" true
    (Consumer.complete session.Session.consumer);
  Alcotest.(check bool) "switches happened" true
    (Leotp_net.Dynamic_path.switch_count dp > 10)

let test_throughput_loss_insensitive () =
  (* Fig 12's shape: going 0 -> 1% per-hop loss costs LEOTP only a few
     percent (vs ~halving for loss-based TCP). *)
  let tput plr =
    let engine, rng = setup () in
    let spec =
      Topology.hop ~plr ~bandwidth:(Bandwidth.Constant (mbps 20.0)) ~delay:0.01 ()
    in
    let chain = Topology.chain engine ~rng (Array.make 5 spec) in
    let session = Session.over_chain engine ~config ~chain ~flow:1 () in
    Session.start session;
    Engine.run ~until:60.0 engine;
    Flow_metrics.goodput_mbps
      (Flow_metrics.delivery session.Session.metrics)
      ~lo:20.0 ~hi:60.0
  in
  let clean = tput 0.0 and lossy = tput 0.01 in
  Alcotest.(check bool)
    (Printf.sprintf "lossy %.2f >= 0.8 x clean %.2f Mbps" lossy clean)
    true
    (lossy >= 0.8 *. clean)

(* Invariants of the hop controller under arbitrary sample streams. *)
let hop_cc_invariants_prop =
  let open QCheck2 in
  Test.make ~name:"hop_cc: cwnd floor, rate bounded, queue >= 0" ~count:100
    Gen.(
      list_size (int_range 1 120)
        (triple (float_range 0.001 0.2) (float_range 0.001 0.3) (int_range 0 30_000)))
    (fun samples ->
      let cc = Hop_cc.create ~config ~now:0.0 () in
      let now = ref 0.0 in
      List.for_all
        (fun (i_owd, d_owd, bytes) ->
          now := !now +. 0.01;
          hop_data cc ~now:!now ~interest_owd:i_owd ~data_owd:d_owd ~bytes;
          cwnd cc >= 2.0 *. float_of_int config.Config.mss
          && hop_rate cc ~now:!now >= 0.0
          && Hop_cc.queue_len cc ~now:!now >= 0.0)
        samples)

let backpressure_monotone_prop =
  let open QCheck2 in
  Test.make ~name:"rate_bp decreases in buffer length" ~count:100
    Gen.(
      triple (int_range 0 500_000) (int_range 0 500_000)
        (pair (float_range 1000.0 5e6) (float_range 0.002 0.3)))
    (fun (bl1, bl2, (next_rate, rtt)) ->
      let r b =
        Hop_cc.rate_bp ~config ~buffer_len:b ~next_hop_rate:next_rate
          ~hop_rtt:rtt
      in
      let lo = min bl1 bl2 and hi = max bl1 bl2 in
      r hi <= r lo +. 1e-6 && r hi >= 0.0)

let test_outage_recovery () =
  (* Failure injection: the path blacks out completely (100% loss on one
     hop) for 2 s mid-transfer; the flow must recover and complete. *)
  let engine, rng = setup () in
  let spec =
    Topology.hop ~bandwidth:(Bandwidth.Constant (mbps 20.0)) ~delay:0.01 ()
  in
  let chain = Topology.chain engine ~rng (Array.make 4 spec) in
  let session =
    Session.over_chain engine ~config ~chain ~flow:1 ~total_bytes:2_000_000 ()
  in
  Session.start session;
  let mid = chain.Topology.hops.(2) in
  ignore
    (Engine.schedule engine ~after:0.5 (fun () ->
         Leotp_net.Link.set_plr mid.Topology.fwd 1.0;
         Leotp_net.Link.set_plr mid.Topology.rev 1.0));
  ignore
    (Engine.schedule engine ~after:2.5 (fun () ->
         Leotp_net.Link.set_plr mid.Topology.fwd 0.0;
         Leotp_net.Link.set_plr mid.Topology.rev 0.0));
  Engine.run ~until:120.0 engine;
  Alcotest.(check bool) "recovers from a 2 s blackout" true
    (Consumer.complete session.Session.consumer);
  Alcotest.(check int) "exact bytes" 2_000_000
    (Flow_metrics.app_bytes session.Session.metrics)

let test_monte_carlo_matches_analytic () =
  (* Independent simulation of the paper's Fig 3 numbers. *)
  let mc scheme =
    Leotp_theory.Retrans.Owd_dist.monte_carlo ~scheme ~p:0.005 ~hops:10
      ~d:0.01 ~packets:100_000 ~seed:9
  in
  let e2e = mc `E2e and hbh = mc `Hbh in
  Alcotest.(check (float 1e-6)) "e2e p99 = 300ms" 0.3
    (Leotp_util.Stats.percentile e2e 99.0);
  Alcotest.(check (float 1e-6)) "hbh p99 = 120ms" 0.12
    (Leotp_util.Stats.percentile hbh 99.0);
  (* "the maximum OWD are 300ms and 700ms respectively" over 100k pkts. *)
  Alcotest.(check bool) "e2e max ~700ms" true
    (Leotp_util.Stats.max e2e >= 0.5 && Leotp_util.Stats.max e2e <= 0.9);
  Alcotest.(check bool) "hbh max ~160ms" true
    (Leotp_util.Stats.max hbh >= 0.14 && Leotp_util.Stats.max hbh <= 0.2)

(* ------------------------------------------------------------------ *)
(* The warm per-packet path allocates nothing *)

let consumer_id = 101
let producer_id = 102
let mss = config.Config.mss

(* A node whose links toward [consumer_id] and [producer_id] recycle
   every packet they deliver. *)
let routed_node engine =
  let rng = Leotp_util.Rng.create ~seed:3 in
  let node = Node.create ~name:"n" in
  let link () =
    let l =
      Leotp_net.Link.create engine ~name:"l"
        ~bandwidth:(Bandwidth.Constant (mbps 1000.0)) ~delay:0.001 ~rng ()
    in
    Leotp_net.Link.set_sink l Leotp_net.Packet_pool.release;
    l
  in
  Node.add_route node ~dst:consumer_id (link ());
  Node.add_route node ~dst:producer_id (link ());
  node

let range_interest engine i =
  Wire.interest_packet ~config ~src:consumer_id ~dst:producer_id ~flow:1
    ~lo:(i * mss) ~hi:((i + 1) * mss) ~timestamp:(Engine.now engine)
    ~send_rate:1e9 ~retx:false

let range_data engine i =
  Wire.data_packet ~config ~src:producer_id ~dst:consumer_id ~flow:1
    ~lo:(i * mss) ~hi:((i + 1) * mss) ~timestamp:(Engine.now engine)
    ~req_owd:0.001 ~first_sent:0.0 ~retx:false

(* Time moves on between packets (a fresh clock box each, outside the
   count), so the sending buffer's tokens refill. *)
let step engine = Engine.run ~until:(Engine.now engine +. 0.01) engine

(* A warm Interest forward: flow lookup, the Responder's OWD and rate,
   a cache miss, PIT registration, re-origination, eq (10) and the
   send all allocate nothing. *)
let test_midnode_interest_allocates_nothing () =
  let engine = Engine.create () in
  let node = routed_node engine in
  ignore (Midnode.create engine ~config ~node ());
  for i = 0 to 99 do
    Node.receive node (range_interest engine i);
    step engine
  done;
  let pkt = range_interest engine 100 in
  let w = minor_words (fun () -> Node.receive node pkt) in
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* A warm in-order Data pass: the hop sample, the insert into an
   existing cache block, the PIT satisfaction, SHR's in-order path, the
   push and the drain allocate nothing. *)
let test_midnode_data_allocates_nothing () =
  let engine = Engine.create () in
  let node = routed_node engine in
  let mid = Midnode.create engine ~config ~node () in
  for i = 0 to 199 do
    Node.receive node (range_interest engine i)
  done;
  step engine;
  for i = 0 to 100 do
    Node.receive node (range_data engine i);
    step engine
  done;
  let pkt = range_data engine 101 in
  let pending = Midnode.pit_pending mid in
  let w = minor_words (fun () -> Node.receive node pkt) in
  Alcotest.(check int) "satisfied" (pending - 1) (Midnode.pit_pending mid);
  Alcotest.(check (float 0.0)) "words" 0.0 w

let test_hop_cc_on_data_allocates_nothing () =
  let cc = Hop_cc.create ~config ~now:0.0 () in
  let pkt = data_record ~flow:1 ~lo:0 ~hi:mss ~first_sent:0.0 ~retx:false in
  pkt.Leotp_net.Packet.f.(Wire.req_owd_slot) <- 0.01;
  (* Boxed times, as the engine clock hands them out: a time computed
     in the loop would be boxed by the call. *)
  let times a b = List.init (b - a) (fun i -> 0.02 *. float_of_int (a + i)) in
  let feed now =
    pkt.Leotp_net.Packet.f.(Wire.timestamp_slot) <- now -. 0.01;
    Hop_cc.on_data cc ~now pkt
  in
  List.iter feed (times 1 1001);
  let warm = times 1001 1201 in
  let w = minor_words (fun () -> List.iter feed warm) in
  Alcotest.(check bool) "adjusted" true ((Hop_cc.window cc).Hop_cc.next_adjust > 1.0);
  Alcotest.(check (float 0.0)) "words" 0.0 w

let test_send_buffer_on_interest_allocates_nothing () =
  let engine = Engine.create () in
  let sb =
    Send_buffer.create engine ~config ~send:Leotp_net.Packet_pool.release ()
  in
  let pkt = interest_record ~timestamp:0.25 ~send_rate:1e6 in
  let w = minor_words (fun () -> Send_buffer.on_interest sb ~now:0.5 pkt) in
  Alcotest.(check (float 0.0)) "req_owd" 0.25 (Send_buffer.req_owd sb);
  Alcotest.(check (float 0.0)) "words" 0.0 w

(* A warm Consumer Data that opens the window and the pump it triggers
   allocate the new Interest's [Seg_store] record and its flat times
   (7 + 5 words) and, when the pacer re-arms its timer, that timer's
   boxed time (2): nothing per Data. *)
let test_consumer_data_allocation () =
  let engine = Engine.create () in
  let rng = Leotp_util.Rng.create ~seed:3 in
  let node = Node.create ~name:"c" in
  (* The Interests the Consumer sends, answered oldest first. *)
  let asked = Queue.create () in
  let up =
    Leotp_net.Link.create engine ~name:"up"
      ~bandwidth:(Bandwidth.Constant (mbps 1000.0)) ~delay:0.001 ~rng ()
  in
  Leotp_net.Link.set_sink up (fun pkt ->
      Queue.push (Wire.lo pkt / mss) asked;
      Leotp_net.Packet_pool.release pkt);
  Node.add_route node ~dst:producer_id up;
  let c =
    Consumer.create engine ~config ~node ~producer:producer_id ~flow:1 ()
  in
  Consumer.start c;
  let answer () =
    let pkt = range_data engine (Queue.pop asked) in
    pkt.Leotp_net.Packet.f.(Wire.first_sent_slot) <- Engine.now engine;
    pkt
  in
  for _ = 1 to 300 do
    step engine;
    if not (Queue.is_empty asked) then Consumer.handle_packet c (answer ())
  done;
  step engine;
  let pkt = answer () in
  let sent = Consumer.interests_sent c in
  let w = minor_words (fun () -> Consumer.handle_packet c pkt) in
  let fresh = Consumer.interests_sent c - sent in
  Alcotest.(check bool) "delivered" true (Consumer.delivered_prefix c > 200 * mss);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d new Interest(s)" w fresh)
    true
    (w <= 14.0 *. float_of_int (max 1 fresh))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp"
    [
      ("wire", [ Alcotest.test_case "sizes" `Quick test_wire_sizes ]);
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "cross-block" `Quick test_cache_cross_block;
          Alcotest.test_case "eviction" `Quick test_cache_eviction;
          Alcotest.test_case "drop flow" `Quick test_cache_drop_flow;
          qc cache_model_prop;
          Alcotest.test_case "warm insert allocates nothing" `Quick
            test_cache_insert_allocates_nothing;
          Alcotest.test_case "interval_set warm add allocates nothing" `Quick
            test_interval_set_add_allocates_nothing;
          Alcotest.test_case "keys outside the packable range" `Quick
            test_cache_key_range;
        ] );
      ( "pit",
        [
          Alcotest.test_case "warm register and satisfy allocate nothing"
            `Quick test_pit_allocates_nothing;
          Alcotest.test_case "warm traced satisfy allocates nothing"
            `Quick test_pit_traced_satisfy_allocates_nothing;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace/remove" `Quick test_lru_replace;
          qc lru_model_prop;
        ] );
      ( "shr",
        [
          Alcotest.test_case "in sequence" `Quick test_shr_in_sequence;
          Alcotest.test_case "Fig 8b walk-through" `Quick test_shr_fig8b;
          Alcotest.test_case "late fill" `Quick test_shr_retransmission_fills_hole;
          Alcotest.test_case "partial fill splits" `Quick test_shr_partial_fill_splits;
          Alcotest.test_case "VPH suppression" `Quick test_shr_vph_suppression;
          qc shr_no_false_loss_prop;
        ] );
      ( "hop_cc",
        [
          Alcotest.test_case "slow start" `Quick test_hop_cc_slow_start_growth;
          Alcotest.test_case "congestion cut" `Quick test_hop_cc_congestion_cut;
          Alcotest.test_case "queue estimate" `Quick test_hop_cc_queue_estimate;
          Alcotest.test_case "backpressure direction" `Quick test_backpressure_signs;
          Alcotest.test_case "eq (9)" `Quick test_backpressure_formula;
          qc hop_cc_invariants_prop;
          qc backpressure_monotone_prop;
          Alcotest.test_case "advertise allocates nothing" `Quick
            test_advertise_allocates_nothing;
          Alcotest.test_case "on_data allocates nothing" `Quick
            test_hop_cc_on_data_allocates_nothing;
        ] );
      ( "warm path",
        [
          Alcotest.test_case "midnode Interest forward allocates nothing"
            `Quick test_midnode_interest_allocates_nothing;
          Alcotest.test_case "midnode in-order Data allocates nothing" `Quick
            test_midnode_data_allocates_nothing;
          Alcotest.test_case "send_buffer on_interest allocates nothing"
            `Quick test_send_buffer_on_interest_allocates_nothing;
          Alcotest.test_case "consumer Data and pump allocation" `Quick
            test_consumer_data_allocation;
        ] );
      ( "send_buffer",
        [
          Alcotest.test_case "rate limit" `Quick test_send_buffer_rate_limit;
          Alcotest.test_case "dedup" `Quick test_send_buffer_dedup;
          Alcotest.test_case "overflow" `Quick test_send_buffer_overflow;
          Alcotest.test_case "Interest OWD stamps what it releases" `Quick
            test_send_buffer_interest_owd;
          Alcotest.test_case "warm push allocates nothing" `Quick
            test_send_buffer_push_allocates_nothing;
          Alcotest.test_case "absorbed duplicate allocates nothing" `Quick
            test_send_buffer_duplicate_allocates_nothing;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "consumer resends a hole highest range first"
            `Quick test_consumer_resends_hole_highest_first;
          Alcotest.test_case "producer stamps Data as it drains" `Quick
            test_producer_stamps_at_drain;
          Alcotest.test_case "midnode stamps Data as it drains" `Quick
            test_midnode_stamps_at_drain;
          Alcotest.test_case "cache hit queued and restamped (Full)" `Quick
            test_cache_hit_full;
          Alcotest.test_case "cache hit leaves at once (E2e_cc)" `Quick
            test_cache_hit_e2e;
          Alcotest.test_case "producer keeps first_sent on re-serve" `Quick
            test_producer_keeps_first_sent;
          Alcotest.test_case "transfer completes" `Quick test_transfer_completes;
          Alcotest.test_case "reliable under loss" `Quick test_transfer_under_loss;
          Alcotest.test_case "in-network retx active" `Quick
            test_in_network_retransmission_active;
          Alcotest.test_case "owd floor" `Quick test_owd_floor;
          Alcotest.test_case "ablation D works" `Quick test_e2e_mode_no_midnodes;
          Alcotest.test_case "A beats D" `Slow test_ablation_throughput_order;
          Alcotest.test_case "partial coverage" `Quick test_partial_coverage_still_works;
          Alcotest.test_case "no duplicate delivery" `Quick
            test_dedup_no_duplicate_delivery;
          Alcotest.test_case "link switching" `Quick
            test_reliability_under_link_switching;
          Alcotest.test_case "blackout recovery" `Quick test_outage_recovery;
          Alcotest.test_case "Monte Carlo vs analytic (Fig 3)" `Quick
            test_monte_carlo_matches_analytic;
          Alcotest.test_case "loss insensitivity" `Slow
            test_throughput_loss_insensitive;
          qc reliability_prop;
        ] );
    ]
