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
  mutable ds_interest_owd : float;
      (** latest Interest OWD measured on the downstream hop *)
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
   whole per-flow state); every later packet takes the table hit. *)
let get_flow t ~flow ~consumer ~producer =
  match Hashtbl.find_opt t.flows flow with
  | Some fs -> fs
  | None ->
    let now = Engine.now t.engine in
    let fs_ref = ref None in
    (* Data leaving the sending buffer gets this hop's fresh timestamp and
       the latest downstream Interest OWD (paper Fig 9's bookkeeping).
       In-place restamping consumes a fresh id, exactly like the
       re-constructed packet it replaces. *)
    let send pkt =
      (match !fs_ref with
      | Some fs when Wire.is_data pkt ->
        Wire.restamp_data pkt
          ~timestamp:(Engine.now t.engine)
          ~req_owd:fs.ds_interest_owd
      | _ -> ());
      Node.send t.node pkt
    in
    let fs =
      {
        flow;
        consumer;
        producer;
        shr = Shr.create ~config:t.config;
        cc = Hop_cc.create ~config:t.config ~now ();
        buffer = Send_buffer.create t.engine ~config:t.config ~send ();
        ds_interest_owd = 0.0;
        vph_sent = 0;
        shr_interests = 0;
        cache_hits = 0;
      }
    in
    fs_ref := Some fs;
    Hashtbl.replace t.flows flow fs;
    fs
[@@leotp.allow "hot-path-may-alloc"]

(* Upstream advertised rate: eq (10) = min(cwnd/hopRTT, rate_bp). *)
let upstream_rate t fs =
  Backpressure.advertised_rate ~config:t.config ~cc:fs.cc
    ~now:(Engine.now t.engine)
    ~buffer_len:(Send_buffer.len fs.buffer)
    ~next_hop_rate:(Send_buffer.rate fs.buffer)

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
    Node.send t.node
      (Wire.interest_packet ~config:t.config ~src:fs.consumer ~dst:fs.producer
         ~flow:fs.flow ~lo ~hi:chunk_hi ~timestamp:now
         ~send_rate:(upstream_rate t fs) ~retx:true);
    send_shr_interest t fs ~lo:chunk_hi ~hi
  end

(* Serve a cached range as MSS-sized Data packets through [emit].
   Returns whether every chunk was served; keeps scanning past a miss so
   partial hits still go out.  Recursion, not while+refs: this runs per
   cache-hit Interest and local [ref]s are minor-heap cells. *)
let rec respond_from_cache t ~flow ~lo ~hi ~src ~dst ~timestamp ~req_owd ~retx
    ~emit =
  if lo >= hi then true
  else begin
    let chunk_hi = min hi (lo + t.config.Config.mss) in
    let served =
      match Cache.lookup t.cache ~flow ~lo ~hi:chunk_hi with
      | Some (first_sent, cretx) ->
        emit
          (Wire.data_packet ~config:t.config ~src ~dst ~flow ~lo ~hi:chunk_hi
             ~timestamp ~req_owd ~first_sent ~retx:(cretx || retx));
        true
      | None -> false
    in
    let rest =
      respond_from_cache t ~flow ~lo:chunk_hi ~hi ~src ~dst ~timestamp
        ~req_owd ~retx ~emit
    in
    served && rest
  end

let handle_interest t pkt =
  let flow = pkt.Packet.flow in
  let lo = Wire.lo pkt and hi = Wire.hi pkt in
  let timestamp = Wire.timestamp pkt in
  let send_rate = Wire.send_rate pkt in
  let retx = Wire.retx pkt in
  let fs =
    get_flow t ~flow ~consumer:pkt.Packet.src ~producer:pkt.Packet.dst
  in
  fs.consumer <- pkt.Packet.src;
  fs.producer <- pkt.Packet.dst;
  let now = Engine.now t.engine in
  if not (Config.hop_cc_enabled t.config) then begin
    (* Ablation C: end-to-end control; pass the Interest through but still
       try the cache. *)
    let hit =
      Config.caches_enabled t.config && Cache.contains t.cache ~flow ~lo ~hi
    in
    if hit then begin
      fs.cache_hits <- fs.cache_hits + 1;
      ignore
        (respond_from_cache t ~flow ~lo ~hi ~src:pkt.Packet.dst
           ~dst:pkt.Packet.src ~timestamp
           ~req_owd:(Float.max 0.0 (now -. timestamp))
           ~retx
           (* one emit closure per cache-hit response — dwarfed by the
              response packet it sends *)
           ~emit:((Node.send t.node) [@leotp.allow "hot-path-may-alloc"]));
      Pool.release pkt
    end
    else Node.send t.node pkt
  end
  else begin
    fs.ds_interest_owd <- Float.max 0.0 (now -. timestamp);
    (* The downstream Requester's advertised rate drives my rate limiter. *)
    Send_buffer.set_rate fs.buffer send_rate;
    let hit =
      Config.caches_enabled t.config && Cache.contains t.cache ~flow ~lo ~hi
    in
    if hit then begin
      fs.cache_hits <- fs.cache_hits + 1;
      ignore
        (respond_from_cache t ~flow ~lo ~hi ~src:pkt.Packet.dst
           ~dst:pkt.Packet.src ~timestamp:now ~req_owd:fs.ds_interest_owd ~retx
           (* one emit closure per cache-hit response — dwarfed by the
              response packet it queues *)
           ~emit:((fun data -> ignore (Send_buffer.push fs.buffer data))
                 [@leotp.allow "hot-path-may-alloc"]));
      Pool.release pkt
    end
    else begin
      let forward =
        Pit.register t.pit ~now ~flow ~lo ~hi ~consumer:pkt.Packet.src
      in
      if forward || retx then begin
        (* Re-originate upstream with this hop's timestamp and rate (a
           fresh id in place, like the re-constructed packet it
           replaces). *)
        Wire.reoriginate_interest pkt ~timestamp:now
          ~send_rate:(upstream_rate t fs);
        Node.send t.node pkt
      end
      else begin
        t.pit_blocked <- t.pit_blocked + 1;
        Pool.release pkt
      end
    end
  end

let handle_data t pkt =
  let flow = pkt.Packet.flow in
  let lo = Wire.lo pkt and hi = Wire.hi pkt in
  let length = Wire.length pkt in
  let timestamp = Wire.timestamp pkt in
  let req_owd = Wire.req_owd pkt in
  let first_sent = Wire.first_sent pkt in
  let retx = Wire.retx pkt in
  let fs = get_flow t ~flow ~consumer:pkt.Packet.dst ~producer:pkt.Packet.src in
  let now = Engine.now t.engine in
  let is_vph = length = 0 in
  (* Upstream hop congestion sample (not for VPHs: they carry no payload
     and may be generated mid-path). *)
  if Config.hop_cc_enabled t.config && not is_vph then
    Hop_cc.on_data fs.cc ~now
      ~interest_owd:(Float.max 0.0 req_owd)
      ~data_owd:(Float.max 0.0 (now -. timestamp))
      ~bytes:length;
  (* In-network retransmission machinery (disabled without caches). *)
  if Config.caches_enabled t.config then begin
    if not is_vph then begin
      Cache.insert t.cache ~flow ~lo ~hi ~first_sent ~retx;
      (* Multicast fan-out: serve every other consumer waiting on this
         range (the packet itself continues to [pkt.dst]). *)
      (* fan-out closure: one per Data carrying multicast waiters,
         inherent to the list the PIT hands back *)
      List.iter
        ((fun consumer ->
           if consumer <> pkt.Packet.dst then
             Node.send t.node
               (Wire.data_packet ~config:t.config ~src:pkt.Packet.src
                  ~dst:consumer ~flow ~lo ~hi ~timestamp:now
                  ~req_owd:fs.ds_interest_owd ~first_sent ~retx))
        [@leotp.allow "hot-path-may-alloc"])
        (Pit.satisfy t.pit ~now ~flow ~lo ~hi)
    end;
    let actions = Shr.on_packet fs.shr ~lo ~hi in
    (* hole-action closures: allocated only when SHR reports new or
       expired holes — loss recovery, not the clean-link steady state *)
    List.iter
      ((fun (lo, hi) -> send_vph t fs ~lo ~hi)
      [@leotp.allow "hot-path-may-alloc"])
      actions.Shr.new_holes;
    List.iter
      ((fun (lo, hi) ->
         (* Serve the retransmission locally if a later packet filled the
            cache meanwhile; otherwise ask upstream. *)
         match Cache.lookup t.cache ~flow ~lo ~hi with
         | Some _ -> ()
         | None -> send_shr_interest t fs ~lo ~hi)
      [@leotp.allow "hot-path-may-alloc"])
      actions.Shr.expired_holes
  end;
  if is_vph then
    (* Forward the notification immediately. *)
    Node.send t.node pkt
  else if Config.hop_cc_enabled t.config then
    ignore (Send_buffer.push fs.buffer pkt)
  else Node.send t.node pkt

let handler t ~from:_ pkt =
  if Wire.is_interest pkt then handle_interest t pkt
  else if Wire.is_data pkt then handle_data t pkt
  else Node.forward t.node ~from:0 pkt

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
  Node.set_handler node (fun ~from pkt -> handler t ~from pkt);
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
    Node.set_handler t.node (fun ~from pkt -> Node.forward t.node ~from pkt)
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    Node.set_handler t.node (fun ~from pkt -> handler t ~from pkt)
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
