module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Pkt_queue = Leotp_net.Pkt_queue

type t = {
  engine : Engine.t;
  config : Config.t;
  send : Packet.t -> unit;
  queue : Pkt_queue.t;
  bucket : Leotp_util.Token_bucket.t;
  x : floats;
  queued_names : Leotp_util.Range_table.t;
      (* Interest aggregation: a data range already waiting in the buffer
         is not enqueued twice (re-requests would otherwise multiply
         under timeout retransmission).  A set of (flow, lo, hi). *)
  mutable queued_bytes : int;
  mutable drops : int;
  mutable drain_timer : Engine.timer;
}

(* Stored flat, so the per-Interest writes box nothing. *)
and floats = {
  mutable rate : float;  (** the bucket's rate, bytes/s *)
  mutable req_owd : float;  (** latest downstream Interest OWD *)
}

(* Only real Data carries a dedup name; VPHs and Interests pass through. *)
let has_name pkt = pkt.Packet.kind = Wire.kind_data && pkt.Packet.i2 > 0

(* The slot of a named packet's name, or -1 when it is not queued. *)
let name_slot t pkt =
  Leotp_util.Range_table.find t.queued_names ~flow:pkt.Packet.flow
    ~lo:pkt.Packet.i0 ~hi:pkt.Packet.i1

let rec drain t =
  if not (Pkt_queue.is_empty t.queue) then begin
    let pkt = Pkt_queue.peek t.queue in
    let now = Engine.now t.engine in
    if Leotp_util.Token_bucket.try_consume t.bucket ~now pkt.Packet.size then begin
      ignore (Pkt_queue.pop t.queue);
      t.queued_bytes <- t.queued_bytes - pkt.Packet.size;
      if has_name pkt then begin
        let s = name_slot t pkt in
        if s >= 0 then Leotp_util.Range_table.remove t.queued_names s
      end;
      (* The wire timestamp is "when the packet is sent by the previous
         node" (Table I), so Data is stamped here, not when it was pushed:
         its wait in the buffer must stay invisible to the hopRTT
         measurement (§III-C).  Restamping is in place and consumes a
         fresh id, exactly like the re-constructed packet it replaces. *)
      if Wire.is_data pkt then begin
        Wire.reoriginate pkt ~timestamp:now;
        pkt.Packet.f.(Wire.req_owd_slot) <- t.x.req_owd
      end;
      t.send pkt;
      drain t
    end
    else begin
      let wait = Leotp_util.Token_bucket.time_until t.bucket ~now pkt.Packet.size in
      (* A zero advertised rate pauses the buffer; a later Interest's
         rate restarts it. *)
      if Float.is_finite wait && not (Engine.is_pending t.drain_timer) then
        Engine.arm t.drain_timer ~after:wait
    end
  end

(* One buffer record, drain timer and closure per flow at first contact
   — setup, not per-packet.  The timer's action closes over the record,
   so the record starts with a stand-in timer that is replaced before
   [create] returns. *)
let create engine ~config ~send () =
  let rate = 10.0 *. float_of_int config.Config.mss in
  let t =
    {
      engine;
      config;
      send;
      queue = Pkt_queue.create ();
      queued_names = Leotp_util.Range_table.create ();
      bucket =
        Leotp_util.Token_bucket.create ~rate
          ~burst:(2.0 *. float_of_int config.Config.mss)
          ~now:(Engine.now engine);
      x = { rate; req_owd = 0.0 };
      queued_bytes = 0;
      drops = 0;
      drain_timer = Engine.timer engine ignore;
    }
  in
  t.drain_timer <- Engine.timer engine (fun () -> drain t);
  t
[@@leotp.allow "hot-path-may-alloc"]

(* [push] always takes ownership: absorbed duplicates and capacity drops
   go back to the pool here, queued packets die later in [t.send]'s
   downstream or in [clear]. *)
let push t pkt =
  if has_name pkt && name_slot t pkt >= 0 then begin
    (* Already queued: absorb the duplicate. *)
    Pool.release pkt;
    true
  end
  else if t.queued_bytes + pkt.Packet.size > t.config.Config.send_buffer_capacity
  then begin
    t.drops <- t.drops + 1;
    Pool.release pkt;
    false
  end
  else begin
    if has_name pkt then
      ignore
        (Leotp_util.Range_table.add t.queued_names ~flow:pkt.Packet.flow
           ~lo:pkt.Packet.i0 ~hi:pkt.Packet.i1);
    Pkt_queue.push t.queue pkt;
    t.queued_bytes <- t.queued_bytes + pkt.Packet.size;
    drain t;
    true
  end

(* The OWD is recorded before the new rate can drain anything, so Data
   released by this very Interest already carries it.  Both floats are
   read from the Interest's slots: passed in, they would be boxed. *)
let on_interest t ~now pkt =
  let f = pkt.Packet.f in
  t.x.req_owd <- Float.max 0.0 (now -. f.(Wire.timestamp_slot));
  t.x.rate <- Float.max 0.0 f.(Wire.send_rate_slot);
  Leotp_util.Token_bucket.set_rate t.bucket ~now f Wire.send_rate_slot;
  if not (Pkt_queue.is_empty t.queue) then drain t

let req_owd t = t.x.req_owd
let write_rate t (pkt : Packet.t) = pkt.Packet.f.(Wire.send_rate_slot) <- t.x.rate
let len t = t.queued_bytes
let drops t = t.drops

let clear t =
  Engine.cancel t.drain_timer;
  Pkt_queue.iter (fun pkt -> Pool.release pkt) t.queue;
  Pkt_queue.clear t.queue;
  Leotp_util.Range_table.clear t.queued_names;
  t.queued_bytes <- 0
