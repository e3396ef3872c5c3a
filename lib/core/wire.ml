(** LEOTP wire format (paper Table I), as flat packet slots.

    Two packet types: Interest (request) and Data (response).  A Data
    packet with [length = 0] is a Void Packet Header (VPH), the
    loss-notification of §III-B.  The header is 15 bytes (TYPE, FlowID,
    rangeStart, rangeEnd, timestamp, sendRate/length).

    Fields beyond Table I ([req_owd], [first_sent], [retx]) are simulation
    metadata: [req_owd] stands in for the Responder-side Interest-OWD
    bookkeeping a real node keeps locally (it rides the Data packet here
    because simulated nodes don't share memory), and [first_sent]/[retx]
    feed the measurement pipeline only.  None of them are charged wire
    bytes.

    Slot layout (name.flow is the packet's own [flow] field):
    - Interest ([kind_interest]): i0 = lo, i1 = hi, f.(0) = timestamp,
      f.(1) = send_rate (bytes/s, eq 10), [flag_retx].
    - Data ([kind_data]): i0 = lo, i1 = hi, i2 = length (0 = VPH),
      f.(0) = timestamp, f.(1) = req_owd, f.(2) = first_sent,
      [flag_retx]. *)

(* Wire-format surface: the slot accessors and constructors are the whole
   module; an .mli would duplicate every one-liner. *)
[@@@leotp.allow "missing-interface"]

module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool

(* Kind registry: net reserves 0 (raw); LEOTP takes 1-2, TCP takes 3-4
   (lib/tcp/wire.ml) — distinct because gateway nodes carry both. *)
let kind_interest = 1
let kind_data = 2

(* The float slots.  Readers on the per-packet path index [f] with
   these, or pass the packet on: a float returned from or passed to
   another module's function is boxed.  The Interest's send-rate slot is
   also written in place by the Requester that computes it
   (Hop_cc.advertise). *)
let timestamp_slot = 0
let send_rate_slot = 1  (* Interest *)
let req_owd_slot = 1  (* Data *)
let first_sent_slot = 2  (* Data *)

let interest_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp ~send_rate
    ~retx =
  let p =
    Pool.acquire ~src ~dst ~flow ~size:config.Config.header_bytes
      ~kind:kind_interest
  in
  p.Packet.i0 <- lo;
  p.Packet.i1 <- hi;
  p.Packet.f.(timestamp_slot) <- timestamp;
  p.Packet.f.(send_rate_slot) <- send_rate;
  Packet.set_flag p Packet.flag_retx retx;
  p

let data_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp ~req_owd
    ~first_sent ~retx =
  let length = hi - lo in
  let p =
    Pool.acquire ~src ~dst ~flow
      ~size:(config.Config.header_bytes + length)
      ~kind:kind_data
  in
  p.Packet.i0 <- lo;
  p.Packet.i1 <- hi;
  p.Packet.i2 <- length;
  p.Packet.f.(timestamp_slot) <- timestamp;
  p.Packet.f.(req_owd_slot) <- req_owd;
  p.Packet.f.(first_sent_slot) <- first_sent;
  Packet.set_flag p Packet.flag_retx retx;
  p

let vph_packet ~config ~src ~dst ~flow ~lo ~hi ~timestamp =
  let p =
    Pool.acquire ~src ~dst ~flow ~size:config.Config.header_bytes
      ~kind:kind_data
  in
  p.Packet.i0 <- lo;
  p.Packet.i1 <- hi;
  (* i2 (length) stays 0: this is the VPH marker. *)
  p.Packet.f.(timestamp_slot) <- timestamp;
  p

(* Accessors (valid for both kinds unless noted). *)
let lo (p : Packet.t) = p.Packet.i0
let hi (p : Packet.t) = p.Packet.i1
let length (p : Packet.t) = p.Packet.i2  (* Data only *)
let retx (p : Packet.t) = Packet.get_flag p Packet.flag_retx
let is_interest (p : Packet.t) = p.Packet.kind = kind_interest
let is_data (p : Packet.t) = p.Packet.kind = kind_data
let is_vph (p : Packet.t) = p.Packet.kind = kind_data && p.Packet.i2 = 0

(* In-place re-origination.  The wire timestamp is "when the packet is
   sent by the previous node" (Table I): Data is restamped when it leaves
   a sending buffer (which also writes its Interest OWD into
   [req_owd_slot]), Interests when a Midnode re-issues them upstream
   (whose Requester then writes its own rate, Hop_cc.advertise).  Each
   consumes a fresh id, exactly like the re-constructed packet it
   replaces — the trace digests depend on that sequence. *)
let reoriginate p ~timestamp =
  Packet.assign_fresh_id p;
  p.Packet.f.(timestamp_slot) <- timestamp
