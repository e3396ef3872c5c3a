(* Ordered store of byte ranges in flight, keyed by range start.  Ranges
   mostly arrive at the top and leave at the bottom, so a ring buffer over
   a growable array holds them, and an insert or removal at a rank moves
   the shorter side.  No operation allocates once the array has grown
   (it doubles): the SACK and FACK scans in [Sender.handle_ack] read
   O(window) segments by rank on every ack, and as an [IntMap] with
   [to_seq_from] they allocated ~10 words per segment visited.  Callers
   walk the store themselves, with [lower_bound] and [get], so no scan
   here takes a closure.  The element is one monomorphic record: an
   ['a array] read checks for a float array, and no call into this
   module is inlined. *)

type times = {
  mutable first_sent : float;
  mutable last_sent : float;
  mutable due : float;
  mutable floor : float;
}

type seg = {
  mutable seq : int;
  mutable len : int;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;  (** declared lost, waiting for retransmission *)
  times : times;
}

let make ~seq ~len =
  {
    seq;
    len;
    retx_count = 0;
    sacked = false;
    lost = false;
    times = { first_sent = 0.0; last_sent = 0.0; due = 0.0; floor = 0.0 };
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
