module Interval_set = Leotp_util.Interval_set

(* Per-block origin metadata: a bounded ring of (range_start_abs,
   first_sent, retx) entries, newest overwriting oldest.  The ring only
   needs to resolve lookups for ranges still in the block, so one slot
   per MSS-grained insertion (plus slack) suffices; a ring keeps insert
   O(1) where the previous list representation paid [List.length] +
   [List.filteri] — O(n²) per block — on every insert. *)
type block = {
  mutable present : Interval_set.t;  (** byte ranges present, block-relative *)
  meta_lo : int array;
  meta_first_sent : float array;
  meta_retx : bool array;
  mutable meta_len : int;  (** live entries, <= capacity *)
  mutable meta_next : int;  (** next write slot *)
  mutable bytes : int;
}

type key = int * int (* flow, block index *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type t = {
  config : Config.t;
  label : string;
  blocks : (key, block) Leotp_util.Lru.t;
  meta_capacity : int;
  mutable used : int;
  stats : stats;
}

let create ?(label = "cache") ~config () =
  {
    config;
    label;
    blocks = Leotp_util.Lru.create ();
    meta_capacity = (config.Config.cache_block / config.Config.mss) + 2;
    used = 0;
    stats = { hits = 0; misses = 0; evictions = 0 };
  }

let trace_occupancy t =
  if Leotp_net.Trace.on () then
    Leotp_net.Trace.emit
      (Leotp_net.Trace.Cache_occupancy
         {
           node = t.label;
           used = t.used;
           capacity = t.config.Config.cache_capacity;
         })

let block_size t = t.config.Config.cache_block

(* One block record (plus its meta arrays) per [cache_block] bytes of
   fresh content entering the cache — amortized over the block's many
   packets, and recycled through the LRU thereafter. *)
let fresh_block t =
  ({
    present = Interval_set.empty;
    meta_lo = (Array.make [@leotp.allow "hot-path-may-alloc"]) t.meta_capacity 0;
    meta_first_sent =
      (Array.make [@leotp.allow "hot-path-may-alloc"]) t.meta_capacity 0.0;
    meta_retx =
      (Array.make [@leotp.allow "hot-path-may-alloc"]) t.meta_capacity false;
    meta_len = 0;
    meta_next = 0;
    bytes = 0;
  } [@leotp.allow "hot-path-may-alloc"])

let push_meta t blk ~lo ~first_sent ~retx =
  let cap = t.meta_capacity in
  let i = blk.meta_next in
  blk.meta_lo.(i) <- lo;
  blk.meta_first_sent.(i) <- first_sent;
  blk.meta_retx.(i) <- retx;
  blk.meta_next <- (i + 1) mod cap;
  if blk.meta_len < cap then blk.meta_len <- blk.meta_len + 1

let evict_until_fits t =
  while t.used > t.config.Config.cache_capacity do
    match Leotp_util.Lru.evict_lru t.blocks with
    | Some (_, blk) ->
      t.used <- t.used - blk.bytes;
      t.stats.evictions <- t.stats.evictions + 1
    | None -> t.used <- 0
  done

(* Apply [f] to every (block_key, block_lo, block_hi) slice of [lo, hi). *)
let iter_blocks t ~flow ~lo ~hi f =
  let bs = block_size t in
  let b0 = lo / bs and b1 = (hi - 1) / bs in
  for b = b0 to b1 do
    let blo = max lo (b * bs) and bhi = min hi ((b + 1) * bs) in
    (* the (flow, block) pair is the LRU key — one per block touched,
       inherent to a hashtable-keyed block store *)
    f ((flow, b) [@leotp.allow "hot-path-may-alloc"]) blo bhi
  done

let insert t ~flow ~lo ~hi ~first_sent ~retx =
  if hi > lo then begin
    (* per-insert block-walk closure — one cell per cached Data, dwarfed
       by the interval-set and LRU updates the insert performs anyway *)
    iter_blocks t ~flow ~lo ~hi
      ((fun key blo bhi ->
        let blk =
          match Leotp_util.Lru.find t.blocks key with
          | Some blk -> blk
          | None ->
            let blk = fresh_block t in
            Leotp_util.Lru.put t.blocks key blk;
            blk
        in
        let before = Interval_set.cardinal blk.present in
        blk.present <- Interval_set.add ~lo:blo ~hi:bhi blk.present;
        let added = Interval_set.cardinal blk.present - before in
        blk.bytes <- blk.bytes + added;
        t.used <- t.used + added;
        push_meta t blk ~lo:blo ~first_sent ~retx)
      [@leotp.allow "hot-path-may-alloc"]);
    evict_until_fits t;
    trace_occupancy t
  end

(* Entry with the largest start <= lo (the insertion that covered [lo]);
   falls back to the newest entry.  Scans the ring newest-first so ties
   on start resolve to the most recent insertion, matching the previous
   newest-first list fold. *)
(* Per-probe scratch cells and the (first_sent, retx) option result are
   the lookup API's currency — a handful of words per Interest probe,
   dwarfed by the Data response a hit produces. *)
let find_meta t blk ~lo =
  if blk.meta_len = 0 then None
  else begin
    let cap = t.meta_capacity in
    let best = ref (-1) in
    for k = 0 to blk.meta_len - 1 do
      let i = (blk.meta_next - 1 - k + (2 * cap)) mod cap in
      let s = blk.meta_lo.(i) in
      if s <= lo && (!best < 0 || s > blk.meta_lo.(!best)) then best := i
    done;
    let i = if !best >= 0 then !best else (blk.meta_next - 1 + cap) mod cap in
    Some (blk.meta_first_sent.(i), blk.meta_retx.(i))
  end
[@@leotp.allow "hot-path-may-alloc"]

let lookup_inner t ~touch ~flow ~lo ~hi =
  let ok = ref true in
  let meta = ref None in
  iter_blocks t ~flow ~lo ~hi (fun key blo bhi ->
      if !ok then begin
        let blk =
          if touch then Leotp_util.Lru.find t.blocks key
          else Leotp_util.Lru.peek t.blocks key
        in
        match blk with
        | Some blk when Interval_set.covers ~lo:blo ~hi:bhi blk.present ->
          if !meta = None then meta := find_meta t blk ~lo:blo
        | Some _ | None -> ok := false
      end);
  if !ok then Some (match !meta with Some m -> m | None -> (0.0, false))
  else None
[@@leotp.allow "hot-path-may-alloc"]

let lookup t ~flow ~lo ~hi =
  match lookup_inner t ~touch:true ~flow ~lo ~hi with
  | Some m ->
    t.stats.hits <- t.stats.hits + 1;
    Some m
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    None

let contains t ~flow ~lo ~hi =
  lookup_inner t ~touch:false ~flow ~lo ~hi <> None

let used_bytes t = t.used
let stats t = t.stats

let clear t =
  Leotp_util.Lru.clear t.blocks;
  t.used <- 0;
  trace_occupancy t

let drop_flow t ~flow =
  let keys = ref [] in
  Leotp_util.Lru.iter
    (fun ((f, _) as key) blk -> if f = flow then keys := (key, blk.bytes) :: !keys)
    t.blocks;
  List.iter
    (fun (key, bytes) ->
      Leotp_util.Lru.remove t.blocks key;
      t.used <- t.used - bytes)
    !keys
