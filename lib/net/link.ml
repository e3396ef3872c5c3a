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
  engine : Leotp_sim.Engine.t;
  name : string;
  src : int;
  dst : int;
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
  mutable in_flight : int;
      (** taken off the queue, delivery (or drop) not yet resolved *)
  mutable epoch : int;
  mutable sink : Packet.t -> unit;
  stats : stats;
}

let create engine ~name ~src ~dst ~bandwidth ~delay ?(plr = 0.0)
    ?(buffer_bytes = 256 * 1024) ~rng () =
  {
    engine;
    name;
    src;
    dst;
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
    in_flight = 0;
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
  }

let set_sink t sink = t.sink <- sink
let src t = t.src
let dst t = t.dst
let name t = t.name
let delay t = t.delay
let set_delay t d = t.delay <- d
let plr t = t.plr
let set_plr t p = t.plr <- p
let bandwidth t = t.bandwidth
let set_bandwidth t b = t.bandwidth <- b
let current_rate t = Bandwidth.at t.bandwidth (Leotp_sim.Engine.now t.engine)
let set_buffer_bytes t n = t.buffer_bytes <- n
let queue_bytes t = t.queued_bytes
let queued_packets t = Pkt_queue.length t.queue
let in_flight t = t.in_flight
let stats t = t.stats
let up t = t.up
let set_dup_prob t p = t.dup_prob <- p

let set_reorder t ~prob ~jitter =
  t.reorder_prob <- prob;
  t.reorder_jitter <- jitter

let trace_drop t pkt reason =
  if Trace.on () then
    Trace.emit (Trace.Link_drop { link = t.name; pkt = pkt.Packet.id; reason })

(* Every dropped packet dies here: the link owns it, so the record goes
   straight back to the pool. *)
let drop t pkt reason =
  trace_drop t pkt reason;
  Packet_pool.release pkt

let deliver t pkt =
  t.stats.packets_delivered <- t.stats.packets_delivered + 1;
  t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
  if Trace.on () then
    Trace.emit
      (Trace.Link_deliver
         { link = t.name; pkt = pkt.Packet.id; size = pkt.Packet.size });
  t.sink pkt

let rec start_transmission t =
  if (not t.busy) && not (Pkt_queue.is_empty t.queue) then begin
    let pkt = Pkt_queue.pop t.queue in
    t.queued_bytes <- t.queued_bytes - pkt.Packet.size;
    t.busy <- true;
    t.in_flight <- t.in_flight + 1;
    let now = Leotp_sim.Engine.now t.engine in
    let rate = Float.max 1.0 (Bandwidth.at t.bandwidth now) in
    let tx_time = float_of_int pkt.Packet.size /. rate in
    let epoch = t.epoch in
    ignore
      (* the transmission-completion event is this closure — one per
         packet per hop is the cost of discrete-event simulation *)
      (Leotp_sim.Engine.schedule t.engine ~after:tx_time
         ((fun () -> complete_transmission t pkt epoch)
         [@leotp.allow "hot-path-may-alloc"]))
  end

and complete_transmission t pkt epoch =
  t.busy <- false;
  if epoch = t.epoch then begin
    (* Corruption consumes the hop's bandwidth but the packet vanishes. *)
    if Leotp_util.Rng.bernoulli t.rng t.plr then begin
      t.stats.drops_error <- t.stats.drops_error + 1;
      t.in_flight <- t.in_flight - 1;
      drop t pkt Trace.Error
    end
    else begin
      let arrival_epoch = t.epoch in
      (* Fault-injected reordering: an extra one-off propagation delay
         lets later packets overtake this one. *)
      let extra =
        if Leotp_util.Rng.bernoulli t.rng t.reorder_prob then
          Leotp_util.Rng.float t.rng t.reorder_jitter
        else 0.0
      in
      ignore
        (* the propagation event is this closure — one per packet per hop
           is the cost of discrete-event simulation, not an oversight *)
        (Leotp_sim.Engine.schedule t.engine ~after:(t.delay +. extra)
           ((fun () ->
             t.in_flight <- t.in_flight - 1;
             if arrival_epoch = t.epoch then begin
               (* Fault-injected duplication at the receiving end.  The
                  dup decision and the copy are taken *before* the first
                  delivery: its sink chain consumes (and may recycle) the
                  record.  Nothing in the synchronous deliver cascade
                  draws from this rng, so hoisting the bernoulli draw
                  leaves the stream — and the trace — bit-identical. *)
               if Leotp_util.Rng.bernoulli t.rng t.dup_prob then begin
                 let copy = Packet_pool.clone pkt in
                 deliver t pkt;
                 t.stats.dups <- t.stats.dups + 1;
                 if Trace.on () then
                   Trace.emit
                     (Trace.Link_dup { link = t.name; pkt = copy.Packet.id });
                 deliver t copy
               end
               else deliver t pkt
             end
             else begin
               t.stats.drops_flush <- t.stats.drops_flush + 1;
               drop t pkt Trace.Flush
             end) [@leotp.allow "hot-path-may-alloc"]))
    end
  end
  else begin
    t.stats.drops_flush <- t.stats.drops_flush + 1;
    t.in_flight <- t.in_flight - 1;
    drop t pkt Trace.Flush
  end;
  start_transmission t

let send t pkt =
  t.stats.packets_in <- t.stats.packets_in + 1;
  if Trace.on () then
    Trace.emit
      (Trace.Link_enq
         { link = t.name; pkt = pkt.Packet.id; size = pkt.Packet.size });
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
           in_flight = t.in_flight;
         })
