module Engine = Leotp_sim.Engine
module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool
module Node = Leotp_net.Node

type flow_stats = {
  vph_sent : int;
  shr_interests : int;
  cache_hits : int;
}

(* Multicast (paper par.VII): a second Consumer's Interest for a range
   already pending upstream is blocked; the passing Data then fans out to
   every waiter.  Retransmission Interests bypass the block so a lost
   response cannot starve a consumer until the entry expires. *)

type flow_state = {
  flow : int;
  mutable consumer : int;  (** learned from passing Interests *)
  mutable producer : int;
  shr : Shr.t;
  cc : Hop_cc.t;  (** Requester side of the upstream hop *)
  buffer : Send_buffer.t;  (** Responder side of the downstream hop *)
  mutable vph_sent : int;
  mutable shr_interests : int;
  mutable cache_hits : int;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  node : Node.t;
  cache : Cache.t;
  pit : Pit.t;
  flows : (int, flow_state) Hashtbl.t;
  mutable pit_blocked : int;
  mutable crashed : bool;
}

(* Allocates only on the first packet of a flow (the miss arm builds the
   whole per-flow state); every later packet takes the table hit, which
   [find] serves without the option [find_opt] would allocate. *)
let get_flow t ~flow ~consumer ~producer =
  match Hashtbl.find t.flows flow with
  | fs -> fs
  | exception Not_found ->
    let fs =
      {
        flow;
        consumer;
        producer;
        shr = Shr.create ~config:t.config;
        cc = Hop_cc.create ~config:t.config ~now:(Engine.now t.engine) ();
        buffer =
          Send_buffer.create t.engine ~config:t.config
            ~send:(Node.send t.node) ();
        vph_sent = 0;
        shr_interests = 0;
        cache_hits = 0;
      }
    in
    Hashtbl.replace t.flows flow fs;
    fs
[@@leotp.allow "hot-path-may-alloc"]

(* Write the upstream advertised rate, eq (10) = min(cwnd/hopRTT,
   rate_bp), into an Interest this hop sends upstream: the sending
   buffer's drain rate goes into the slot, and the controller replaces
   it with eq (10). *)
let advertise t fs pkt =
  Send_buffer.write_rate fs.buffer pkt;
  Hop_cc.advertise fs.cc ~now:(Engine.now t.engine)
    ~buffer_len:(Send_buffer.len fs.buffer)
    pkt

let send_vph t fs ~lo ~hi =
  let now = Engine.now t.engine in
  fs.vph_sent <- fs.vph_sent + 1;
  (* Notifications bypass the rate limiter: they must outrun the data
     stream to suppress duplicate detection downstream (§III-B). *)
  Node.send t.node
    (Wire.vph_packet ~config:t.config ~src:fs.producer ~dst:fs.consumer
       ~flow:fs.flow ~lo ~hi ~timestamp:now)

(* Retransmission requests are split at MSS so responses stay packet
   sized.  Recursion, not while+ref: this runs on the loss-recovery
   path and a local [ref] is a minor-heap cell. *)
let rec send_shr_interest t fs ~lo ~hi =
  if lo < hi then begin
    let now = Engine.now t.engine in
    let chunk_hi = min hi (lo + t.config.Config.mss) in
    fs.shr_interests <- fs.shr_interests + 1;
    let interest =
      Wire.interest_packet ~config:t.config ~src:fs.consumer ~dst:fs.producer
        ~flow:fs.flow ~lo ~hi:chunk_hi ~timestamp:now ~send_rate:0.0
        ~retx:true
    in
    advertise t fs interest;
    Node.send t.node interest;
    send_shr_interest t fs ~lo:chunk_hi ~hi
  end

(* Serve a cached range as MSS-sized Data packets, keeping on past a
   missing chunk so partial hits still go out.  The Data carries the
   Interest's timestamp and OWD, which ablation C's end-to-end controller
   reads; under hop-by-hop control it joins the sending buffer, which
   paces it and restamps it as it drains.  Recursion, not while+refs:
   this runs per cache-hit Interest and local [ref]s are minor-heap
   cells. *)
let rec respond_from_cache t fs ~lo ~hi ~timestamp ~req_owd ~retx =
  if lo < hi then begin
    let chunk_hi = min hi (lo + t.config.Config.mss) in
    (match Cache.lookup t.cache ~flow:fs.flow ~lo ~hi:chunk_hi with
    | Some (first_sent, cretx) ->
      let data =
        Wire.data_packet ~config:t.config ~src:fs.producer ~dst:fs.consumer
          ~flow:fs.flow ~lo ~hi:chunk_hi ~timestamp ~req_owd ~first_sent
          ~retx:(cretx || retx)
      in
      if Config.hop_cc_enabled t.config then
        ignore (Send_buffer.push fs.buffer data)
      else Node.send t.node data
    | None -> ());
    respond_from_cache t fs ~lo:chunk_hi ~hi ~timestamp ~req_owd ~retx
  end

let handle_interest t pkt =
  let flow = pkt.Packet.flow in
  let lo = Wire.lo pkt and hi = Wire.hi pkt in
  let retx = Wire.retx pkt in
  let fs =
    get_flow t ~flow ~consumer:pkt.Packet.src ~producer:pkt.Packet.dst
  in
  fs.consumer <- pkt.Packet.src;
  fs.producer <- pkt.Packet.dst;
  let now = Engine.now t.engine in
  let hop_cc = Config.hop_cc_enabled t.config in
  (* The downstream Requester's advertised rate drives my rate limiter. *)
  if hop_cc then Send_buffer.on_interest fs.buffer ~now pkt;
  if Config.caches_enabled t.config && Cache.contains t.cache ~flow ~lo ~hi
  then begin
    fs.cache_hits <- fs.cache_hits + 1;
    let timestamp = pkt.Packet.f.(Wire.timestamp_slot) in
    respond_from_cache t fs ~lo ~hi ~timestamp
      ~req_owd:(Float.max 0.0 (now -. timestamp))
      ~retx;
    Pool.release pkt
  end
  else if not hop_cc then
    (* Ablation C: end-to-end control; the Interest passes through. *)
    Node.send t.node pkt
  else begin
    let forward =
      Pit.register t.pit ~now ~flow ~lo ~hi ~consumer:pkt.Packet.src
    in
    if forward || retx then begin
      (* Re-originate upstream with this hop's timestamp and rate (a
         fresh id in place, like the re-constructed packet it
         replaces). *)
      Wire.reoriginate pkt ~timestamp:now;
      advertise t fs pkt;
      Node.send t.node pkt
    end
    else begin
      t.pit_blocked <- t.pit_blocked + 1;
      Pool.release pkt
    end
  end

(* Multicast fan-out: every other consumer waiting on the range gets a
   copy of the passing Data (the packet itself continues to its own
   destination), walking [Pit.satisfy]'s [n] waiters from [i], newest
   first. *)
let rec fan_out t fs pkt ~now i n =
  if i < n then begin
    let consumer = Pit.waiter t.pit i in
    if consumer <> pkt.Packet.dst then
      Node.send t.node
        (Wire.data_packet ~config:t.config ~src:pkt.Packet.src ~dst:consumer
           ~flow:fs.flow ~lo:(Wire.lo pkt) ~hi:(Wire.hi pkt) ~timestamp:now
           ~req_owd:(Send_buffer.req_owd fs.buffer)
           ~first_sent:pkt.Packet.f.(Wire.first_sent_slot)
           ~retx:(Wire.retx pkt));
    fan_out t fs pkt ~now (i + 1) n
  end

(* SHR's new holes are announced downstream at once. *)
let rec announce_holes t fs = function
  | [] -> ()
  | (lo, hi) :: rest ->
    send_vph t fs ~lo ~hi;
    announce_holes t fs rest

(* SHR's expired holes are asked for upstream, unless a later packet
   filled the cache meanwhile: downstream's own retransmission request
   then hits the cache here. *)
let rec request_holes t fs = function
  | [] -> ()
  | (lo, hi) :: rest ->
    (match Cache.lookup t.cache ~flow:fs.flow ~lo ~hi with
    | Some _ -> ()
    | None -> send_shr_interest t fs ~lo ~hi);
    request_holes t fs rest

(* The Data's float slots are read by the callees that use them
   (controller, cache), so none is boxed on the way. *)
let handle_data t pkt =
  let flow = pkt.Packet.flow in
  let lo = Wire.lo pkt and hi = Wire.hi pkt in
  let length = Wire.length pkt in
  let fs = get_flow t ~flow ~consumer:pkt.Packet.dst ~producer:pkt.Packet.src in
  let now = Engine.now t.engine in
  let is_vph = length = 0 in
  (* Upstream hop congestion sample (not for VPHs: they carry no payload
     and may be generated mid-path). *)
  if Config.hop_cc_enabled t.config && not is_vph then
    Hop_cc.on_data fs.cc ~now pkt;
  (* In-network retransmission machinery (disabled without caches). *)
  if Config.caches_enabled t.config then begin
    if not is_vph then begin
      Cache.insert t.cache pkt;
      fan_out t fs pkt ~now 0 (Pit.satisfy t.pit ~now ~flow ~lo ~hi)
    end;
    let actions = Shr.on_packet fs.shr ~lo ~hi in
    announce_holes t fs actions.Shr.new_holes;
    request_holes t fs actions.Shr.expired_holes
  end;
  if is_vph then
    (* Forward the notification immediately. *)
    Node.send t.node pkt
  else if Config.hop_cc_enabled t.config then
    ignore (Send_buffer.push fs.buffer pkt)
  else Node.send t.node pkt

let handler t pkt =
  if Wire.is_interest pkt then handle_interest t pkt
  else if Wire.is_data pkt then handle_data t pkt
  else Node.send t.node pkt

let create engine ~config ~node () =
  let t =
    {
      engine;
      config;
      node;
      cache = Cache.create ~label:(Node.name node) ~config ();
      pit = Pit.create ~label:(Node.name node) ~expiry:config.Config.pit_expiry ();
      flows = Hashtbl.create 8;
      pit_blocked = 0;
      crashed = false;
    }
  in
  Node.set_handler node (fun pkt -> handler t pkt);
  t

(* Crash model (paper §VII: midnode state is soft and "can be
   reconstructed rapidly upon failures"): the LEOTP process dies, losing
   cache, PIT and per-flow state, while the node itself keeps forwarding
   packets like a plain router until [restart] brings the interception
   handler back with cold state. *)
let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    (* Order-insensitive: each per-flow buffer is cleared independently
       and no event or trace record is emitted per entry. *)
    (Hashtbl.iter [@leotp.allow "ordered-iteration"])
      (fun _ fs -> Send_buffer.clear fs.buffer)
      t.flows;
    Hashtbl.reset t.flows;
    Cache.clear t.cache;
    Pit.clear t.pit;
    Node.set_handler t.node (fun pkt -> Node.send t.node pkt)
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    Node.set_handler t.node (fun pkt -> handler t pkt)
  end

let sweep_pit t ~now = Pit.expire_before t.pit ~now

(* Flow retirement (many-flow fleets): drop one flow's soft state while
   the midnode keeps serving every other flow.  The sending buffer's
   queued packets go back to the pool, cached ranges are evicted so the
   catalog slot can be reused, and PIT entries are expired with traced
   removals so the pit-lifetime invariant sees a balanced ledger. *)
let retire_flow t ~flow =
  (match Hashtbl.find_opt t.flows flow with
  | Some fs ->
    Send_buffer.clear fs.buffer;
    Hashtbl.remove t.flows flow
  | None -> ());
  Cache.drop_flow t.cache ~flow;
  Pit.drop_flow t.pit ~flow

let flow_stats t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some fs ->
    Some
      ({
         vph_sent = fs.vph_sent;
         shr_interests = fs.shr_interests;
         cache_hits = fs.cache_hits;
       }
        : flow_stats)
  | None -> None

let cache t = t.cache
let pit_blocked t = t.pit_blocked
let pit_pending t = Pit.pending t.pit
