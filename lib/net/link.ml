module Engine = Leotp_sim.Engine

type stats = {
  mutable packets_in : int;
  mutable packets_delivered : int;
  mutable bytes_delivered : int;
  mutable drops_tail : int;
  mutable drops_error : int;
  mutable drops_flush : int;
  mutable drops_down : int;
  mutable dups : int;
}

type t = {
  engine : Engine.t;
  after : float array;  (** the engine's post delay slot *)
  name : string;
  mutable bandwidth : Bandwidth.t;
  mutable delay : float;
  mutable plr : float;
  mutable buffer_bytes : int;
  mutable up : bool;
  mutable dup_prob : float;
  mutable reorder_prob : float;
  mutable reorder_jitter : float;
  rng : Leotp_util.Rng.t;
  queue : Pkt_queue.t;
  mutable queued_bytes : int;
  mutable busy : bool;
  mutable epoch : int;
  mutable sink : Packet.t -> unit;
  stats : stats;
  (* Packets taken off the queue and not yet delivered or dropped
     (serializing or propagating), by slot.  A slot is the int argument
     of the link's two typed events and keeps the epoch its packet
     started serializing in.  Free slots form a stack. *)
  mutable slot_pkt : Packet.t array;
  mutable slot_epoch : int array;
  mutable free : int array;
  mutable n_free : int;
  mutable transmitted : Engine.handler;  (** serialization done; arg = slot *)
  mutable arrived : Engine.handler;  (** propagation done; arg = slot *)
}

let set_sink t sink = t.sink <- sink
let delay t = t.delay
let set_delay t d = t.delay <- d
let plr t = t.plr
let set_plr t p = t.plr <- p
let bandwidth t = t.bandwidth
let set_bandwidth t b = t.bandwidth <- b
let current_rate t = Bandwidth.at t.bandwidth (Engine.now t.engine)
let set_buffer_bytes t n = t.buffer_bytes <- n
let queue_bytes t = t.queued_bytes
let queued_packets t = Pkt_queue.length t.queue
let in_flight t = Array.length t.slot_pkt - t.n_free
let stats t = t.stats
let set_dup_prob t p = t.dup_prob <- p

let set_reorder t ~prob ~jitter =
  t.reorder_prob <- prob;
  t.reorder_jitter <- jitter

let trace_drop t pkt reason =
  if Trace.on () then Trace.link_drop ~link:t.name ~pkt:pkt.Packet.id ~reason

(* Every dropped packet dies here: the link owns it, so the record goes
   straight back to the pool. *)
let drop t pkt reason =
  trace_drop t pkt reason;
  Packet_pool.release pkt

let deliver t pkt =
  t.stats.packets_delivered <- t.stats.packets_delivered + 1;
  t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
  if Trace.on () then
    Trace.link_deliver ~link:t.name ~pkt:pkt.Packet.id ~size:pkt.Packet.size;
  t.sink pkt

(* Doubles the slot table.  [pkt] (the packet about to be stored) fills
   the fresh cells, so the table needs no placeholder packet. *)
let grow_slots t pkt =
  let n = Array.length t.slot_pkt in
  let cap = max 4 (2 * n) in
  let pkts = Array.make cap pkt in
  let epochs = Array.make cap 0 in
  let free = Array.make cap 0 in
  Array.blit t.slot_pkt 0 pkts 0 n;
  Array.blit t.slot_epoch 0 epochs 0 n;
  (* Every old slot is taken; the new ones pop in increasing order. *)
  for k = 0 to cap - n - 1 do
    free.(k) <- cap - 1 - k
  done;
  t.slot_pkt <- pkts;
  t.slot_epoch <- epochs;
  t.free <- free;
  t.n_free <- cap - n
(* doubling growth, bounded by the link's bandwidth-delay product:
   amortized O(1), not a steady-state allocation *)
[@@leotp.allow "hot-path-may-alloc"]

let take_slot t pkt =
  if t.n_free = 0 then grow_slots t pkt;
  t.n_free <- t.n_free - 1;
  let slot = t.free.(t.n_free) in
  t.slot_pkt.(slot) <- pkt;
  t.slot_epoch.(slot) <- t.epoch;
  slot

let free_slot t slot =
  t.free.(t.n_free) <- slot;
  t.n_free <- t.n_free + 1

(* Posts [h] for [slot] [after] seconds from now.  Inlined, so [after]
   reaches the engine's delay slot unboxed. *)
let[@inline] post t h slot ~after =
  t.after.(0) <- after;
  Engine.post t.engine h slot
[@@leotp.dim "seconds after"]

let rec start_transmission t =
  if (not t.busy) && not (Pkt_queue.is_empty t.queue) then begin
    let pkt = Pkt_queue.pop t.queue in
    t.queued_bytes <- t.queued_bytes - pkt.Packet.size;
    t.busy <- true;
    let slot = take_slot t pkt in
    let now = Engine.now t.engine in
    let rate = Float.max 1.0 (Bandwidth.at t.bandwidth now) in
    let tx_time = float_of_int pkt.Packet.size /. rate in
    post t t.transmitted slot ~after:tx_time
  end

and complete_transmission t slot =
  let pkt = t.slot_pkt.(slot) in
  t.busy <- false;
  if t.slot_epoch.(slot) = t.epoch then begin
    (* Corruption consumes the hop's bandwidth but the packet vanishes. *)
    if Leotp_util.Rng.bernoulli t.rng t.plr then begin
      t.stats.drops_error <- t.stats.drops_error + 1;
      free_slot t slot;
      drop t pkt Trace.Error
    end
    else begin
      (* Fault-injected reordering: an extra one-off propagation delay
         lets later packets overtake this one.  The slot keeps its epoch:
         it is still the current one. *)
      let extra =
        if Leotp_util.Rng.bernoulli t.rng t.reorder_prob then
          Leotp_util.Rng.float t.rng t.reorder_jitter
        else 0.0
      in
      post t t.arrived slot ~after:(t.delay +. extra)
    end
  end
  else begin
    t.stats.drops_flush <- t.stats.drops_flush + 1;
    free_slot t slot;
    drop t pkt Trace.Flush
  end;
  start_transmission t

let arrive t slot =
  let pkt = t.slot_pkt.(slot) in
  let current = t.slot_epoch.(slot) = t.epoch in
  free_slot t slot;
  if current then begin
    (* Fault-injected duplication at the receiving end.  The dup decision
       and the copy are taken *before* the first delivery: its sink chain
       consumes (and may recycle) the record.  Nothing in the synchronous
       deliver cascade draws from this rng, so hoisting the bernoulli
       draw leaves the stream — and the trace — bit-identical. *)
    if Leotp_util.Rng.bernoulli t.rng t.dup_prob then begin
      let copy = Packet_pool.clone pkt in
      deliver t pkt;
      t.stats.dups <- t.stats.dups + 1;
      if Trace.on () then Trace.link_dup ~link:t.name ~pkt:copy.Packet.id;
      deliver t copy
    end
    else deliver t pkt
  end
  else begin
    t.stats.drops_flush <- t.stats.drops_flush + 1;
    drop t pkt Trace.Flush
  end

let create engine ~name ~bandwidth ~delay ?(plr = 0.0)
    ?(buffer_bytes = 256 * 1024) ~rng () =
  (* The two handlers close over the record, so it starts with a
     stand-in that is replaced before [create] returns. *)
  let unset = Engine.handler engine ignore in
  let t =
    {
      engine;
      after = Engine.post_delay engine;
      name;
      bandwidth;
      delay;
      plr;
      buffer_bytes;
      up = true;
      dup_prob = 0.0;
      reorder_prob = 0.0;
      reorder_jitter = 0.0;
      rng;
      queue = Pkt_queue.create ();
      queued_bytes = 0;
      busy = false;
      epoch = 0;
      sink = (fun _ -> ());
      stats =
        {
          packets_in = 0;
          packets_delivered = 0;
          bytes_delivered = 0;
          drops_tail = 0;
          drops_error = 0;
          drops_flush = 0;
          drops_down = 0;
          dups = 0;
        };
      slot_pkt = [||];
      slot_epoch = [||];
      free = [||];
      n_free = 0;
      transmitted = unset;
      arrived = unset;
    }
  in
  t.transmitted <-
    Engine.handler engine (fun slot -> complete_transmission t slot);
  t.arrived <- Engine.handler engine (fun slot -> arrive t slot);
  t

let send t pkt =
  t.stats.packets_in <- t.stats.packets_in + 1;
  if Trace.on () then
    Trace.link_enq ~link:t.name ~pkt:pkt.Packet.id ~size:pkt.Packet.size;
  if not t.up then begin
    t.stats.drops_down <- t.stats.drops_down + 1;
    drop t pkt Trace.Down
  end
  else if t.queued_bytes + pkt.Packet.size > t.buffer_bytes then begin
    t.stats.drops_tail <- t.stats.drops_tail + 1;
    drop t pkt Trace.Tail
  end
  else begin
    Pkt_queue.push t.queue pkt;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size;
    start_transmission t
  end

(* Runs on path switch (handover timescale), not per packet. *)
let flush t =
  t.epoch <- t.epoch + 1;
  t.stats.drops_flush <- t.stats.drops_flush + Pkt_queue.length t.queue;
  Pkt_queue.iter
    ((fun pkt -> drop t pkt Trace.Flush) [@leotp.allow "hot-path-may-alloc"])
    t.queue;
  Pkt_queue.clear t.queue;
  t.queued_bytes <- 0

let set_up t v =
  if v && not t.up then t.up <- true
  else if (not v) && t.up then begin
    (* Going down flushes everything queued and in flight. *)
    flush t;
    t.up <- false
  end

let trace_final t =
  if Trace.on () then
    Trace.emit
      (Trace.Link_final
         {
           link = t.name;
           offered = t.stats.packets_in;
           delivered = t.stats.packets_delivered;
           dropped =
             t.stats.drops_tail + t.stats.drops_error + t.stats.drops_flush
             + t.stats.drops_down;
           dups = t.stats.dups;
           queued = Pkt_queue.length t.queue;
           in_flight = in_flight t;
         })
