(* Free-list recycling of packet records.

   The pool is a domain-local stack (each bench job runs entirely on one
   domain, so no cross-domain hand-off exists).  Pushes and pops move
   array slots only — no list cells — so steady-state acquire/release
   allocates nothing; the stack doubles when a burst outgrows it.

   Debug mode ([LEOTP_POOL_DEBUG=1] or [set_debug true]) poisons every
   released record so a reader holding a stale reference sees sentinel
   values instead of plausible data, and raises on double release. *)

type stack = { mutable arr : Packet.t array; mutable len : int }

let pool : stack Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { arr = [||]; len = 0 })

(* Packets handed out and not yet released on this domain.  Every
   creation path funnels through [acquire]/[clone] and every sink through
   [release], so a zero delta across a run proves nothing leaked. *)
let live : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let live_count () = !(Domain.DLS.get live)

(* Read once per release in debug builds only; an Atomic bool set from
   the environment (or tests) does not affect packet contents or ids, so
   it cannot perturb --jobs N determinism. *)
let debug =
  Atomic.make
    (match Sys.getenv_opt "LEOTP_POOL_DEBUG" with
    | Some "1" -> true
    | _ -> false)
[@@leotp.allow "no-global-mutable-state"]

let set_debug v = Atomic.set debug v
let debug_enabled () = Atomic.get debug

(* Double releases are counted unconditionally — in non-debug builds the
   first release still wins, but a non-zero count after a run is exactly
   the bug the leotp-own static pass hunts for, so tests assert it is 0.
   Cross-domain aggregate: worker domains each release on their own pool,
   the counter sums them. *)
let double_releases = Leotp_util.Atomic_counter.create ()

let double_release_count () = Leotp_util.Atomic_counter.get double_releases
let reset_double_release_count () = Leotp_util.Atomic_counter.reset double_releases

let poison_int = (1 lsl 61) + 0xDEAD
let poison_float = Float.neg_infinity

let poison (p : Packet.t) =
  p.Packet.id <- -p.Packet.id - 1;
  p.Packet.src <- poison_int;
  p.Packet.dst <- poison_int;
  p.Packet.flow <- poison_int;
  p.Packet.size <- poison_int;
  p.Packet.kind <- poison_int;
  p.Packet.i0 <- poison_int;
  p.Packet.i1 <- poison_int;
  p.Packet.i2 <- poison_int;
  p.Packet.i3 <- poison_int;
  p.Packet.i4 <- poison_int;
  p.Packet.i5 <- poison_int;
  p.Packet.i6 <- poison_int;
  p.Packet.i7 <- poison_int;
  for i = 0 to Packet.float_slots - 1 do
    p.Packet.f.(i) <- poison_float
  done

let release (p : Packet.t) =
  if Packet.get_flag p Packet.flag_free then begin
    (* Already in the free list: releasing again would alias the record
       between two future owners.  Counted always, loud in debug, ignored
       otherwise (the first release already made the record recyclable). *)
    Leotp_util.Atomic_counter.incr double_releases;
    if Atomic.get debug then
      invalid_arg
        (Printf.sprintf "Packet_pool.release: double release of packet %d"
           p.Packet.id)
  end
  else begin
    if Atomic.get debug then poison p;
    p.Packet.flags <- Packet.flag_free;
    decr (Domain.DLS.get live);
    let s = Domain.DLS.get pool in
    let cap = Array.length s.arr in
    if s.len = cap then begin
      let ncap = max 256 (2 * cap) in
      (* doubling growth: amortized O(1), not a steady-state allocation *)
      let narr = (Array.make [@leotp.allow "hot-path-may-alloc"]) ncap p in
      Array.blit s.arr 0 narr 0 s.len;
      s.arr <- narr
    end;
    (* the free list is the terminal owner of a released record *)
    (s.arr.(s.len) <- p) [@leotp.allow "own-escape"];
    s.len <- s.len + 1
  end

(* Fresh id, zeroed slots: a recycled record is indistinguishable from a
   newly allocated one. *)
let acquire ~src ~dst ~flow ~size ~kind =
  assert (size > 0);
  incr (Domain.DLS.get live);
  let s = Domain.DLS.get pool in
  let p =
    (* empty-pool refill: each record is allocated once, then recycled *)
    if s.len = 0 then (Packet.blank [@leotp.allow "hot-path-may-alloc"]) ()
    else begin
      s.len <- s.len - 1;
      let p = s.arr.(s.len) in
      if Atomic.get debug && not (Packet.get_flag p Packet.flag_free) then
        invalid_arg "Packet_pool.acquire: free-list record not marked free";
      p
    end
  in
  Packet.assign_fresh_id p;
  p.Packet.src <- src;
  p.Packet.dst <- dst;
  p.Packet.flow <- flow;
  p.Packet.size <- size;
  p.Packet.kind <- kind;
  p.Packet.flags <- 0;
  p.Packet.i0 <- 0;
  p.Packet.i1 <- 0;
  p.Packet.i2 <- 0;
  p.Packet.i3 <- 0;
  p.Packet.i4 <- 0;
  p.Packet.i5 <- 0;
  p.Packet.i6 <- 0;
  p.Packet.i7 <- 0;
  for i = 0 to Packet.float_slots - 1 do
    p.Packet.f.(i) <- 0.0
  done;
  p

(* Identical copy, *including* the id: link-level duplication delivers
   the same logical packet twice, so the copy consumes no fresh id and
   traces under the original's id. *)
let clone (p : Packet.t) =
  (* Cloning a released record is a use-after-release: the source may
     already be recycled under another owner (and is poisoned in debug). *)
  if Atomic.get debug && Packet.get_flag p Packet.flag_free then
    invalid_arg
      (Printf.sprintf "Packet_pool.clone: clone of released packet %d"
         p.Packet.id);
  incr (Domain.DLS.get live);
  let s = Domain.DLS.get pool in
  let c =
    (* empty-pool refill: each record is allocated once, then recycled *)
    if s.len = 0 then (Packet.blank [@leotp.allow "hot-path-may-alloc"]) ()
    else begin
      s.len <- s.len - 1;
      let c = s.arr.(s.len) in
      if Atomic.get debug && not (Packet.get_flag c Packet.flag_free) then
        invalid_arg "Packet_pool.clone: free-list record not marked free";
      c
    end
  in
  c.Packet.id <- p.Packet.id;
  c.Packet.src <- p.Packet.src;
  c.Packet.dst <- p.Packet.dst;
  c.Packet.flow <- p.Packet.flow;
  c.Packet.size <- p.Packet.size;
  c.Packet.kind <- p.Packet.kind;
  c.Packet.flags <- p.Packet.flags land lnot Packet.flag_free;
  c.Packet.i0 <- p.Packet.i0;
  c.Packet.i1 <- p.Packet.i1;
  c.Packet.i2 <- p.Packet.i2;
  c.Packet.i3 <- p.Packet.i3;
  c.Packet.i4 <- p.Packet.i4;
  c.Packet.i5 <- p.Packet.i5;
  c.Packet.i6 <- p.Packet.i6;
  c.Packet.i7 <- p.Packet.i7;
  Array.blit p.Packet.f 0 c.Packet.f 0 Packet.float_slots;
  c
