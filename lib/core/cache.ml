module Interval_set = Leotp_util.Interval_set

(* A block holds the byte ranges of one [cache_block]-sized slice of a
   flow that are present, as absolute [lo, hi) ranges in [present], plus
   per-block origin metadata: a bounded ring of (range_start_abs,
   first_sent, retx) entries, newest overwriting oldest.  The ring only
   needs to resolve lookups for ranges still in the block, so one slot
   per MSS-grained insertion (plus slack) suffices.

   Blocks sit on a circular recency list threaded through them, around a
   sentinel block: [newer] runs from the least recently used block to the
   most recently used one, [older] the other way. *)
type block = {
  mutable key : int;  (** packed (flow, block index); see [key] *)
  present : Interval_set.t;
  meta_lo : int array;
  meta_first_sent : float array;
  meta_retx : bool array;
  mutable meta_len : int;  (** live entries, <= capacity *)
  mutable meta_next : int;  (** next write slot *)
  mutable newer : block;
  mutable older : block;
}

module Index = Hashtbl.Make (Int)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  config : Config.t;
  label : string;
  blocks : block Index.t;
  lru : block;
      (** the sentinel: [lru.newer] is the least recently used block,
          [lru.older] the most recently used one *)
  mutable spare : block;  (** the last evicted block, or [lru] *)
  meta_capacity : int;
  mutable used : int;
  stats : stats;
}

let sentinel () =
  let rec s =
    {
      key = -1;
      present = Interval_set.create ();
      meta_lo = [||];
      meta_first_sent = [||];
      meta_retx = [||];
      meta_len = 0;
      meta_next = 0;
      newer = s;
      older = s;
    }
  in
  s

let create ?(label = "cache") ~config () =
  let lru = sentinel () in
  {
    config;
    label;
    blocks = Index.create 64;
    lru;
    spare = lru;
    meta_capacity = (config.Config.cache_block / config.Config.mss) + 2;
    used = 0;
    stats = { hits = 0; misses = 0; evictions = 0 };
  }

let trace_occupancy t =
  if Leotp_net.Trace.on () then
    Leotp_net.Trace.cache_occupancy ~node:t.label ~used:t.used
      ~capacity:t.config.Config.cache_capacity

let block_size t = t.config.Config.cache_block

(* One int per (flow, block) so a lookup builds no tuple: the flow in
   the high bits, the block index in the low 32. *)
let block_bits = 32
let max_flow = (1 lsl (Sys.int_size - 1 - block_bits)) - 1

let key ~flow b =
  if flow < 0 || flow > max_flow || b < 0 || b lsr block_bits <> 0 then
    invalid_arg
      (Printf.sprintf "Cache: flow %d, block %d outside the packable range"
         flow b);
  (flow lsl block_bits) lor b

let flow_of blk = blk.key lsr block_bits

(* ------------------------------------------------------------------ *)
(* Recency list *)

let unlink blk =
  blk.newer.older <- blk.older;
  blk.older.newer <- blk.newer

let push_mru t blk =
  let mru = t.lru.older in
  blk.newer <- t.lru;
  blk.older <- mru;
  mru.newer <- blk;
  t.lru.older <- blk

let touch t blk =
  unlink blk;
  push_mru t blk

(* The block under [key], or the sentinel. *)
let find t key =
  match Index.find t.blocks key with blk -> blk | exception Not_found -> t.lru

let new_block t key =
  {
    key;
    present = Interval_set.create ();
    meta_lo = Array.make t.meta_capacity 0;
    meta_first_sent = Array.make t.meta_capacity 0.0;
    meta_retx = Array.make t.meta_capacity false;
    meta_len = 0;
    meta_next = 0;
    newer = t.lru;
    older = t.lru;
  }
(* one record (plus its arrays) per block of fresh content while the
   cache fills — amortized over the block's many packets *)
[@@leotp.allow "hot-path-may-alloc"]

(* A fresh block is the last evicted one, emptied, when there is one: a
   full cache then admits new content without allocating a block (the
   index still takes one bucket cell per block admitted). *)
let fresh_block t key =
  let blk =
    if t.spare == t.lru then new_block t key
    else begin
      let blk = t.spare in
      t.spare <- t.lru;
      blk.key <- key;
      Interval_set.clear blk.present;
      blk.meta_len <- 0;
      blk.meta_next <- 0;
      blk
    end
  in
  Index.replace t.blocks key blk;
  push_mru t blk;
  blk

(* ------------------------------------------------------------------ *)
(* Insert and evict *)

(* [data]'s first-send time and retx flag are read from its slots: the
   float would be boxed as an argument. *)
let push_meta t blk ~lo (data : Leotp_net.Packet.t) =
  let cap = t.meta_capacity in
  let i = blk.meta_next in
  blk.meta_lo.(i) <- lo;
  blk.meta_first_sent.(i) <- data.Leotp_net.Packet.f.(Wire.first_sent_slot);
  blk.meta_retx.(i) <- Wire.retx data;
  blk.meta_next <- (i + 1) mod cap;
  if blk.meta_len < cap then blk.meta_len <- blk.meta_len + 1

let rec evict_until_fits t =
  if t.used > t.config.Config.cache_capacity then begin
    let blk = t.lru.newer in
    if blk == t.lru then t.used <- 0
    else begin
      unlink blk;
      Index.remove t.blocks blk.key;
      t.used <- t.used - Interval_set.cardinal blk.present;
      t.stats.evictions <- t.stats.evictions + 1;
      t.spare <- blk
    end;
    evict_until_fits t
  end

(* Adds [lo, hi) block slice by block slice, from the block holding
   [lo] on. *)
let rec insert_from t ~flow ~hi data lo =
  if lo < hi then begin
    let bs = block_size t in
    let b = lo / bs in
    let bhi = min hi ((b + 1) * bs) in
    let k = key ~flow b in
    let blk = find t k in
    let blk = if blk == t.lru then fresh_block t k else (touch t blk; blk) in
    t.used <- t.used + Interval_set.add blk.present ~lo ~hi:bhi;
    push_meta t blk ~lo data;
    insert_from t ~flow ~hi data bhi
  end

let insert t (data : Leotp_net.Packet.t) =
  let lo = Wire.lo data and hi = Wire.hi data in
  if hi > lo then begin
    insert_from t ~flow:data.Leotp_net.Packet.flow ~hi data lo;
    evict_until_fits t;
    trace_occupancy t
  end

(* ------------------------------------------------------------------ *)
(* Lookup *)

(* Ring slot of the entry with the largest start <= lo (the insertion
   that covered [lo]), scanning newest-first so ties on start resolve to
   the most recent insertion; falls back to the newest entry, and to -1
   when the block has none. *)
let rec best_meta blk ~cap ~lo k best =
  if k = blk.meta_len then
    if best >= 0 || k = 0 then best else (blk.meta_next - 1 + cap) mod cap
  else begin
    let i = (blk.meta_next - 1 - k + (2 * cap)) mod cap in
    let s = blk.meta_lo.(i) in
    let best =
      if s <= lo && (best < 0 || s > blk.meta_lo.(best)) then i else best
    in
    best_meta blk ~cap ~lo (k + 1) best
  end

(* Whether blocks [b, b1] of the flow hold all of [lo, hi); stops at the
   first block that does not, after touching it. *)
let rec cached t ~touch:tch ~flow ~lo ~hi b b1 =
  b > b1
  ||
  let blk = find t (key ~flow b) in
  blk != t.lru
  && begin
       if tch then touch t blk;
       let bs = block_size t in
       Interval_set.covers blk.present ~lo:(max lo (b * bs))
         ~hi:(min hi ((b + 1) * bs))
       && cached t ~touch:tch ~flow ~lo ~hi (b + 1) b1
     end

let lookup t ~flow ~lo ~hi =
  let bs = block_size t in
  let b0 = lo / bs and b1 = (hi - 1) / bs in
  if cached t ~touch:true ~flow ~lo ~hi b0 b1 then begin
    t.stats.hits <- t.stats.hits + 1;
    (* The range starts in block [b0]; an empty range may touch none,
       and the sentinel has no metadata. *)
    let blk = if b0 > b1 then t.lru else find t (key ~flow b0) in
    let i = best_meta blk ~cap:t.meta_capacity ~lo:(max lo (b0 * bs)) 0 (-1) in
    (* the (first_sent, retx) result is the lookup API's currency, one
       per hit; the Data response it produces dwarfs it *)
    (Some
       (if i < 0 then (0.0, false)
        else (blk.meta_first_sent.(i), blk.meta_retx.(i)))
    [@leotp.allow "hot-path-may-alloc"])
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    None
  end

let contains t ~flow ~lo ~hi =
  let bs = block_size t in
  cached t ~touch:false ~flow ~lo ~hi (lo / bs) ((hi - 1) / bs)

let used_bytes t = t.used
let stats t = t.stats

let clear t =
  Index.reset t.blocks;
  t.lru.newer <- t.lru;
  t.lru.older <- t.lru;
  t.spare <- t.lru;
  t.used <- 0;
  trace_occupancy t

let rec drop_from t ~flow blk =
  if blk != t.lru then begin
    let older = blk.older in
    if flow_of blk = flow then begin
      unlink blk;
      Index.remove t.blocks blk.key;
      t.used <- t.used - Interval_set.cardinal blk.present
    end;
    drop_from t ~flow older
  end

let drop_flow t ~flow = drop_from t ~flow t.lru.older
