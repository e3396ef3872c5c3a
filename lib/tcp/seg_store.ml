(* Ordered store for a TCP sender's unacknowledged segments.

   The sender's access pattern is strictly structured: new segments are
   appended at ever-increasing sequence numbers, cumulative ACKs remove a
   prefix, and everything else is an ordered scan or a point lookup.  A
   ring buffer over a growable array supports all of that with zero
   allocation per operation (amortised: the backing array doubles), which
   matters because the SACK and FACK scans in [Sender.handle_ack] run on
   every ack and cover O(window) segments — as an [IntMap] with
   [to_seq_from] they allocated ~10 words per segment visited, the
   dominant allocation in every large-window TCP scenario. *)

type seg = {
  mutable seq : int;
  mutable len : int;
  mutable first_sent : float;
  mutable last_sent : float;
  mutable retx_count : int;
  mutable sacked : bool;
  mutable lost : bool;  (** declared lost, waiting for retransmission *)
}

type t = { mutable buf : seg array; mutable head : int; mutable count : int }

let dummy =
  {
    seq = -1;
    len = 0;
    first_sent = 0.0;
    last_sent = 0.0;
    retx_count = 0;
    sacked = false;
    lost = false;
  }

let create () = { buf = Array.make 64 dummy; head = 0; count = 0 }
let is_empty t = t.count = 0
let get t i = t.buf.((t.head + i) mod Array.length t.buf)

let grow t =
  let cap = Array.length t.buf in
  (* doubling growth: amortized O(1), not a steady-state allocation *)
  let buf = (Array.make [@leotp.allow "hot-path-may-alloc"]) (2 * cap) dummy in
  for i = 0 to t.count - 1 do
    buf.(i) <- get t i
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t seg =
  if t.count = Array.length t.buf then grow t;
  t.buf.((t.head + t.count) mod Array.length t.buf) <- seg;
  t.count <- t.count + 1

let first t = if t.count = 0 then None else Some (get t 0)

let pop_front t =
  t.buf.(t.head) <- dummy;
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.count <- t.count - 1

(* Index of the first segment with [seq >= from]; [t.count] if none.
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

(* Ordered scan starting at the first segment with [seq >= from]; stops
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

(* Cumulative-ack removal: drop every segment entirely below [cum]
   (calling [on_drop] on each) and truncate a straddler in place so its
   unacknowledged tail stays outstanding.  [on_straddle seg head] runs
   before the truncation with [head] = acknowledged bytes. *)
let rec drop_below t ~cum ~on_drop ~on_straddle =
  if t.count > 0 then begin
    let seg = get t 0 in
    if seg.seq + seg.len <= cum then begin
      on_drop seg;
      pop_front t;
      drop_below t ~cum ~on_drop ~on_straddle
    end
    else if seg.seq < cum then begin
      let head = cum - seg.seq in
      on_straddle seg head;
      seg.seq <- cum;
      seg.len <- seg.len - head
    end
  end
