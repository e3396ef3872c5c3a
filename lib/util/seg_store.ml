(* Ordered store of byte ranges in flight, keyed by range start.  Ranges
   mostly arrive at the top and leave at the bottom, so a ring buffer over
   a growable array holds them, and an insert or removal at a rank moves
   the shorter side.  No operation allocates once the array has grown
   (it doubles): the SACK and FACK scans in [Sender.handle_ack] cover
   O(window) segments on every ack, and as an [IntMap] with
   [to_seq_from] they allocated ~10 words per segment visited.  The
   element is one monomorphic record: an ['a array] read checks for a
   float array, and no call into this module is inlined. *)

type seg = {
  mutable seq : int;
  mutable len : int;
  mutable first_sent : float;
  mutable last_sent : float;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;  (** declared lost, waiting for retransmission *)
  mutable due : float;
  mutable floor : float;
}

let make ~seq ~len =
  {
    seq;
    len;
    first_sent = 0.0;
    last_sent = 0.0;
    retx_count = 0;
    sacked = false;
    lost = false;
    due = 0.0;
    floor = 0.0;
  }
(* one record per range in flight, for its whole lifetime *)
[@@leotp.allow "hot-path-may-alloc"]

(* Rank [i] lives in [buf.((head + i) land mask)]; the capacity is a
   power of two, so [mask] wraps a rank below [head] too. *)
type t = { mutable buf : seg array; mutable head : int; mutable count : int }

let dummy = make ~seq:(-1) ~len:0

let create () = { buf = Array.make 64 dummy; head = 0; count = 0 }
let is_empty t = t.count = 0
let length t = t.count
let slot t i = (t.head + i) land (Array.length t.buf - 1)
let get t i = t.buf.(slot t i)

let grow t =
  let cap = Array.length t.buf in
  (* doubling growth: amortized O(1), not a steady-state allocation *)
  let buf = (Array.make [@leotp.allow "hot-path-may-alloc"]) (2 * cap) dummy in
  for i = 0 to t.count - 1 do
    buf.(i) <- get t i
  done;
  t.buf <- buf;
  t.head <- 0

let insert t i seg =
  if t.count = Array.length t.buf then grow t;
  if i < t.count - i then begin
    (* ranks [0, i) move one slot down *)
    t.head <- slot t (-1);
    for k = 0 to i - 1 do
      t.buf.(slot t k) <- t.buf.(slot t (k + 1))
    done
  end
  else
    (* ranks [i, count) move one slot up *)
    for k = t.count downto i + 1 do
      t.buf.(slot t k) <- t.buf.(slot t (k - 1))
    done;
  t.buf.(slot t i) <- seg;
  t.count <- t.count + 1

let push_back t seg = insert t t.count seg

let remove t i =
  if i < t.count - 1 - i then begin
    (* ranks [0, i) move one slot up *)
    for k = i downto 1 do
      t.buf.(slot t k) <- t.buf.(slot t (k - 1))
    done;
    t.buf.(t.head) <- dummy;
    t.head <- slot t 1
  end
  else begin
    (* ranks (i, count) move one slot down *)
    for k = i to t.count - 2 do
      t.buf.(slot t k) <- t.buf.(slot t (k + 1))
    done;
    t.buf.(slot t (t.count - 1)) <- dummy
  end;
  t.count <- t.count - 1

(* Index of the first range with [seq >= from]; [t.count] if none.
   Top-level recursion rather than while+ref: this runs per ack, and a
   local [ref] (or a captured closure) is a minor-heap allocation. *)
let rec lb_search t ~from lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if (get t mid).seq < from then lb_search t ~from (mid + 1) hi
    else lb_search t ~from lo mid

let lower_bound t ~from = lb_search t ~from 0 t.count

let find t pos =
  let i = lower_bound t ~from:pos in
  if i < t.count then begin
    let seg = get t i in
    if seg.seq = pos then Some seg else None
  end
  else None

let iter t f =
  for i = 0 to t.count - 1 do
    f (get t i)
  done

(* Ordered scan starting at the first range with [seq >= from]; stops
   when [f] returns false.  Recursion, not while+ref: this is the SACK
   scan, run per ack. *)
let rec iter_while_at t f i =
  if i < t.count && f (get t i) then iter_while_at t f (i + 1)

let iter_from_while t ~from f = iter_while_at t f (lower_bound t ~from)

(* Next retransmission candidate.  A dedicated scan (rather than
   [iter_from_while] with a closure over a [ref]) keeps the sender's
   per-ack path free of closure allocations. *)
let rec first_lost_at t i =
  if i >= t.count then None
  else
    let seg = get t i in
    if seg.lost && not seg.sacked then Some seg else first_lost_at t (i + 1)

let first_lost t ~from = first_lost_at t (lower_bound t ~from)

(* Cumulative-ack removal: drop every range entirely below [cum]
   (calling [on_drop] on each) and truncate a straddler in place so its
   unacknowledged tail stays outstanding.  [on_straddle seg head] runs
   before the truncation with [head] = acknowledged bytes. *)
let rec drop_below t ~cum ~on_drop ~on_straddle =
  if t.count > 0 then begin
    let seg = get t 0 in
    if seg.seq + seg.len <= cum then begin
      on_drop seg;
      remove t 0;
      drop_below t ~cum ~on_drop ~on_straddle
    end
    else if seg.seq < cum then begin
      let head = cum - seg.seq in
      on_straddle seg head;
      seg.seq <- cum;
      seg.len <- seg.len - head
    end
  end
