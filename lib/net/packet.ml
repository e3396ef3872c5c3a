(* Flat, recyclable packet representation.

   Payloads are not heap-allocated constructor blocks: every protocol
   encodes its fields into the fixed slots below ([kind] selects the
   layout, documented in the owning wire module).  Records are acquired
   from and released to [Packet_pool]; in steady state the simulation
   allocates no words per packet.

   Slot registry (kinds must be distinct across protocols because
   gateways carry both on one node):
     0  raw          [str] opaque payload (tests)
     1  leotp Interest   lib/core/wire.ml
     2  leotp Data/VPH   lib/core/wire.ml
     3  tcp Data_seg     lib/tcp/wire.ml
     4  tcp Ack_seg      lib/tcp/wire.ml *)

type t = {
  mutable id : int;
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable size : int;
  mutable kind : int;
  mutable flags : int;
  mutable i0 : int;
  mutable i1 : int;
  mutable i2 : int;
  mutable i3 : int;
  mutable i4 : int;
  mutable i5 : int;
  mutable i6 : int;
  mutable i7 : int;
  f : float array;
      (** [float_slots] unboxed float slots, used by the payload layouts *)
  mutable str : string;
}

let kind_raw = 0

let flag_retx = 1
let flag_fin = 2
let flag_ts_echo = 4

let flag_free = 256
(** set while the record sits in the pool's free list (double-release
    and use-after-release detection) *)

let float_slots = 3

let get_flag t bit = t.flags land bit <> 0

let set_flag t bit v =
  if v then t.flags <- t.flags lor bit else t.flags <- t.flags land lnot bit

(* The only raw allocation of a packet record: [Packet_pool] calls it to
   grow the pool, queues call it for array placeholders.  Each record is
   allocated once and recycled forever after. *)
let blank () =
  ({
    id = 0;
    src = 0;
    dst = 0;
    flow = 0;
    size = 0;
    kind = kind_raw;
    flags = 0;
    i0 = 0;
    i1 = 0;
    i2 = 0;
    i3 = 0;
    i4 = 0;
    i5 = 0;
    i6 = 0;
    i7 = 0;
    f = Array.make float_slots 0.0;
    str = "";
    } [@leotp.allow "hot-path-may-alloc"])

(* Domain-local so independent simulations running on worker domains
   (bench --jobs N) each see the same id sequence as a sequential run. *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

(* Lifetime count of logical packets created on this domain.  Unlike
   [counter] it is *not* reset between experiments: the bench runner
   reads deltas around each job to attribute per-packet allocation. *)
let created = Domain.DLS.new_key (fun () -> ref 0)

(* Every point that logically creates a packet — pool acquisition, or
   in-place re-origination of a pooled record — consumes the next id,
   exactly as [make] did when each packet was a fresh heap record; the
   trace digests depend on this sequence. *)
let assign_fresh_id t =
  let c = Domain.DLS.get counter in
  incr c;
  incr (Domain.DLS.get created);
  t.id <- !c

let reset_ids () = Domain.DLS.get counter := 0
let created_on_domain () = !(Domain.DLS.get created)

let pp ppf t =
  Format.fprintf ppf "#%d flow=%d %d->%d %dB" t.id t.flow t.src t.dst t.size
