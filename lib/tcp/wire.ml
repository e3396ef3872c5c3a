(** TCP-like wire format carried in simulator packets, as flat slots.

    [Data_seg] also carries [first_sent], the time the byte range was first
    transmitted by the {i origin} sender: the receiver uses it to measure
    application-level data-retrieval delay (including retransmission and,
    for Split TCP, proxy queuing), which is the paper's OWD metric.

    Slot layout:
    - Data_seg ([kind_data_seg]): i0 = seq, i1 = len, f.(0) = sent_at,
      f.(1) = first_sent, [flag_retx], [flag_fin].
    - Ack_seg ([kind_ack_seg]): i0 = cum_ack, i1 = number of SACK ranges
      (0..3), ranges inline in (i2,i3) (i4,i5) (i6,i7) — fixed slots, no
      list; f.(0) = ts_echo with [flag_ts_echo] marking presence.  The
      presence flag, not a 0.0 sentinel, preserves the PR 5 semantics: a
      packet sent at simulation time 0.0 is a perfectly valid RTT sample
      (it used to be silently dropped, leaving the first RTO unprimed). *)

(* Wire-format surface: the slot accessors and constructors are the whole
   module; an .mli would duplicate every one-liner. *)
[@@@leotp.allow "missing-interface"]

module Packet = Leotp_net.Packet
module Pool = Leotp_net.Packet_pool

(* Kind registry: 1-2 are LEOTP's (lib/core/wire.ml). *)
let kind_data_seg = 3
let kind_ack_seg = 4

let header_bytes = 40
let default_mss = 1400
let max_sacks = 3

let data_packet ~src ~dst ~flow ~seq ~len ~sent_at ~first_sent ~retx ~fin =
  let p =
    Pool.acquire ~src ~dst ~flow ~size:(header_bytes + len)
      ~kind:kind_data_seg
  in
  p.Packet.i0 <- seq;
  p.Packet.i1 <- len;
  p.Packet.f.(0) <- sent_at;
  p.Packet.f.(1) <- first_sent;
  Packet.set_flag p Packet.flag_retx retx;
  Packet.set_flag p Packet.flag_fin fin;
  p

(* The ack starts with zero SACK ranges; the receiver appends up to
   [max_sacks] with [add_sack]. *)
let ack_packet ~src ~dst ~flow ~cum_ack =
  let p =
    Pool.acquire ~src ~dst ~flow ~size:header_bytes ~kind:kind_ack_seg
  in
  p.Packet.i0 <- cum_ack;
  p

let set_ts_echo p ts =
  p.Packet.f.(0) <- ts;
  Packet.set_flag p Packet.flag_ts_echo true

let add_sack p ~lo ~hi =
  (match p.Packet.i1 with
  | 0 ->
    p.Packet.i2 <- lo;
    p.Packet.i3 <- hi
  | 1 ->
    p.Packet.i4 <- lo;
    p.Packet.i5 <- hi
  | 2 ->
    p.Packet.i6 <- lo;
    p.Packet.i7 <- hi
  | _ -> invalid_arg "Wire.add_sack: more than 3 ranges");
  p.Packet.i1 <- p.Packet.i1 + 1

(* Data_seg accessors. *)
let seq (p : Packet.t) = p.Packet.i0
let len (p : Packet.t) = p.Packet.i1
let sent_at (p : Packet.t) = p.Packet.f.(0)
let first_sent (p : Packet.t) = p.Packet.f.(1)
let retx (p : Packet.t) = Packet.get_flag p Packet.flag_retx
let fin (p : Packet.t) = Packet.get_flag p Packet.flag_fin

(* Ack_seg accessors. *)
let cum_ack (p : Packet.t) = p.Packet.i0
let sack_count (p : Packet.t) = p.Packet.i1

let sack_lo (p : Packet.t) i =
  match i with
  | 0 -> p.Packet.i2
  | 1 -> p.Packet.i4
  | _ -> p.Packet.i6

let sack_hi (p : Packet.t) i =
  match i with
  | 0 -> p.Packet.i3
  | 1 -> p.Packet.i5
  | _ -> p.Packet.i7

let has_ts_echo (p : Packet.t) = Packet.get_flag p Packet.flag_ts_echo
let ts_echo (p : Packet.t) = p.Packet.f.(0)

(* The trace's [Ack_processed] event keeps its list shape (digest
   compatibility); only built when a recorder is actually observing. *)
let sack_list (p : Packet.t) =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((sack_lo p i, sack_hi p i) :: acc)
  in
  go (sack_count p - 1) []

let is_data_seg (p : Packet.t) = p.Packet.kind = kind_data_seg
let is_ack_seg (p : Packet.t) = p.Packet.kind = kind_ack_seg
