type drop_reason = Tail | Error | Flush | Down
type seg_state = Seg_sent | Seg_retx | Seg_lost

type event =
  | Link_enq of { link : string; pkt : int; size : int }
  | Link_drop of { link : string; pkt : int; reason : drop_reason }
  | Link_deliver of { link : string; pkt : int; size : int }
  | Link_dup of { link : string; pkt : int }
  | Link_final of {
      link : string;
      offered : int;
      delivered : int;
      dropped : int;
      dups : int;
      queued : int;
      in_flight : int;
    }
  | Pit_register of {
      node : string;
      flow : int;
      lo : int;
      hi : int;
      forwarded : bool;
      expiry : float;
      pending : int;
    }
  | Pit_satisfy of {
      node : string;
      flow : int;
      lo : int;
      hi : int;
      fresh : bool;
      age : float;
      pending : int;
    }
  | Pit_expire of { node : string; flow : int; lo : int; hi : int; pending : int }
  | Cache_occupancy of { node : string; used : int; capacity : int }
  | Deliver of { node : int; flow : int; pos : int; len : int }
  | Complete of { node : int; flow : int; bytes : int }
  | Rto_fire of { who : string; elapsed : float; floor : float }
  | Ack_processed of {
      who : string;
      flow : int;
      cc : string;
      phase : string;
      cum_ack : int;
      sacks : (int * int) list;
      rtt : float option;
      snd_una : int;
      inflight : int;
      lost_pending : int;
      cwnd : float;
      rto : float;
    }
  | Seg_state of {
      who : string;
      flow : int;
      seq : int;
      len : int;
      state : seg_state;
    }
  | Fault of { what : string }

type record = { seq : int; time : float; event : event }

type slots = { mutable time : float; mutable age : float }

type fold = {
  slots : slots;
  link_enq : link:string -> pkt:int -> size:int -> unit;
  link_drop : link:string -> pkt:int -> reason:drop_reason -> unit;
  link_deliver : link:string -> pkt:int -> size:int -> unit;
  link_dup : link:string -> pkt:int -> unit;
  link_final :
    link:string ->
    offered:int ->
    delivered:int ->
    dropped:int ->
    dups:int ->
    queued:int ->
    in_flight:int ->
    unit;
  pit_register :
    node:string ->
    flow:int ->
    lo:int ->
    hi:int ->
    forwarded:bool ->
    expiry:float ->
    pending:int ->
    unit;
  pit_satisfy :
    node:string -> flow:int -> lo:int -> hi:int -> fresh:bool -> pending:int -> unit;
  pit_expire : node:string -> flow:int -> lo:int -> hi:int -> pending:int -> unit;
  cache_occupancy : node:string -> used:int -> capacity:int -> unit;
  deliver : node:int -> flow:int -> pos:int -> len:int -> unit;
  complete : node:int -> flow:int -> bytes:int -> unit;
  rto_fire : who:string -> elapsed:float -> floor:float -> unit;
}

type t = {
  capacity : int;
  digesting : bool;
  mutable direct : bool;
      (** digests or folds, feeds no sink and keeps a one-slot ring: an
          emit mixes its fields straight into [digest], hands them to
          [fold] and builds no record *)
  mutable ring : record array;  (** allocated lazily at first emit *)
  mutable len : int;
  mutable next : int;
  mutable seq : int;
  mutable digest : int;
  mutable clock : unit -> float;
  mutable sinks : (record -> unit) list;
  mutable fold : fold option;
}

(* The digest is a streaming structural hash: every field of every
   record is mixed straight into an immediate [int] state, one FNV-style
   multiply-xor step per word, so digesting allocates nothing per
   record.  A record feeds its seq, its time, a tag per constructor, then
   each field in declaration order; strings and lists feed their length
   first, so the word stream is prefix-free and each step is a bijection
   of the state.  Combinators take the state last, for [|>] pipelines. *)
let seed = 0x4bf29ce484222325 (* FNV-1a 64 offset basis, top bit dropped *)

(* The xorshift carries high bits down.  Without it a difference confined
   to the top bit passes through every multiply unchanged, so two records
   differing only there would collide when fed in swapped order. *)
let[@inline] mix x h =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 31)

(* Both 32-bit halves: an [int] holds 63 bits, so [Int64.to_int] alone
   would drop the sign bit. *)
let[@inline] mix_float f h =
  let b = Int64.bits_of_float f in
  h
  |> mix (Int64.to_int (Int64.shift_right_logical b 32))
  |> mix (Int64.to_int b land 0xffff_ffff)

let mix_string s h =
  let h = ref (mix (String.length s) h) in
  for i = 0 to String.length s - 1 do
    h := mix (Char.code (String.unsafe_get s i)) !h
  done;
  !h

let rec mix_pairs l h =
  match l with [] -> h | (lo, hi) :: tl -> mix_pairs tl (h |> mix lo |> mix hi)

let mix_sacks sacks h = mix_pairs sacks (mix (List.length sacks) h)

let mix_rtt rtt h =
  match rtt with None -> mix 0 h | Some r -> h |> mix 1 |> mix_float r

let reason_tag = function Tail -> 0 | Error -> 1 | Flush -> 2 | Down -> 3
let state_tag = function Seg_sent -> 0 | Seg_retx -> 1 | Seg_lost -> 2

(* One field encoder per kind that has a typed emitter, shared by
   [mix_event] and that emitter, so a kind hashes the same whether its
   event was built or not. *)
let link_enq_fields ~link ~pkt ~size h =
  h |> mix 0 |> mix_string link |> mix pkt |> mix size

let link_drop_fields ~link ~pkt ~reason h =
  h |> mix 1 |> mix_string link |> mix pkt |> mix (reason_tag reason)

let link_deliver_fields ~link ~pkt ~size h =
  h |> mix 2 |> mix_string link |> mix pkt |> mix size

let link_dup_fields ~link ~pkt h = h |> mix 3 |> mix_string link |> mix pkt

let pit_register_fields ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending h =
  h |> mix 5 |> mix_string node |> mix flow |> mix lo |> mix hi
  |> mix (Bool.to_int forwarded) |> mix_float expiry |> mix pending

(* Up to the age: the typed emitter mixes its age straight from the
   PIT's stamp, unboxed. *)
let pit_satisfy_head ~node ~flow ~lo ~hi ~fresh h =
  h |> mix 6 |> mix_string node |> mix flow |> mix lo |> mix hi
  |> mix (Bool.to_int fresh)

let pit_expire_fields ~node ~flow ~lo ~hi ~pending h =
  h |> mix 7 |> mix_string node |> mix flow |> mix lo |> mix hi |> mix pending

let cache_occupancy_fields ~node ~used ~capacity h =
  h |> mix 8 |> mix_string node |> mix used |> mix capacity

let deliver_fields ~node ~flow ~pos ~len h =
  h |> mix 9 |> mix node |> mix flow |> mix pos |> mix len

let complete_fields ~node ~flow ~bytes h =
  h |> mix 10 |> mix node |> mix flow |> mix bytes

let seg_state_fields ~who ~flow ~seq ~len ~state h =
  h |> mix 13 |> mix_string who |> mix flow |> mix seq |> mix len
  |> mix (state_tag state)

let mix_event ev h =
  match ev with
  | Link_enq { link; pkt; size } -> link_enq_fields ~link ~pkt ~size h
  | Link_drop { link; pkt; reason } -> link_drop_fields ~link ~pkt ~reason h
  | Link_deliver { link; pkt; size } -> link_deliver_fields ~link ~pkt ~size h
  | Link_dup { link; pkt } -> link_dup_fields ~link ~pkt h
  | Link_final { link; offered; delivered; dropped; dups; queued; in_flight } ->
    h |> mix 4 |> mix_string link |> mix offered |> mix delivered
    |> mix dropped |> mix dups |> mix queued |> mix in_flight
  | Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
    pit_register_fields ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending h
  | Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
    pit_satisfy_head ~node ~flow ~lo ~hi ~fresh h |> mix_float age
    |> mix pending
  | Pit_expire { node; flow; lo; hi; pending } ->
    pit_expire_fields ~node ~flow ~lo ~hi ~pending h
  | Cache_occupancy { node; used; capacity } ->
    cache_occupancy_fields ~node ~used ~capacity h
  | Deliver { node; flow; pos; len } -> deliver_fields ~node ~flow ~pos ~len h
  | Complete { node; flow; bytes } -> complete_fields ~node ~flow ~bytes h
  | Rto_fire { who; elapsed; floor } ->
    h |> mix 11 |> mix_string who |> mix_float elapsed |> mix_float floor
  | Ack_processed
      {
        who;
        flow;
        cc;
        phase;
        cum_ack;
        sacks;
        rtt;
        snd_una;
        inflight;
        lost_pending;
        cwnd;
        rto;
      } ->
    h |> mix 12 |> mix_string who |> mix flow |> mix_string cc
    |> mix_string phase |> mix cum_ack |> mix_sacks sacks |> mix_rtt rtt
    |> mix snd_una |> mix inflight |> mix lost_pending |> mix_float cwnd
    |> mix_float rto
  | Seg_state { who; flow; seq; len; state } ->
    seg_state_fields ~who ~flow ~seq ~len ~state h
  | Fault { what } -> h |> mix 14 |> mix_string what

let mix_stamp ~seq ~time h = h |> mix seq |> mix_float time

let mix_record (r : record) h =
  h |> mix_stamp ~seq:r.seq ~time:r.time |> mix_event r.event

let hex h = Printf.sprintf "%016x" h

let create ?(capacity = 65536) ?(digesting = true) () =
  {
    capacity = max 1 capacity;
    digesting;
    direct = digesting && capacity <= 1;
    ring = [||];
    len = 0;
    next = 0;
    seq = 0;
    digest = seed;
    clock = (fun () -> 0.0);
    sinks = [];
    fold = None;
  }

let add_sink t sink =
  t.direct <- false;
  t.sinks <- t.sinks @ [ sink ]

let add_fold t f =
  if Option.is_some t.fold then invalid_arg "Trace.add_fold: already folding";
  t.fold <- Some f;
  t.direct <- t.capacity <= 1 && t.sinks = []

(* Domain-local recorder, mirroring the Packet/Node id counters so that
   parallel sweep cells never observe each other. *)
let current : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install t = Domain.DLS.get current := Some t
let uninstall () = Domain.DLS.get current := None
let installed () = !(Domain.DLS.get current)

(* A recorder that neither digests nor feeds a sink or a fold observes
   nothing: [on] reports false for it so hot-path call sites skip event
   construction entirely — the allocation-free-when-disabled contract. *)
let enabled t = t.digesting || t.sinks <> [] || Option.is_some t.fold

let on () =
  match !(Domain.DLS.get current) with None -> false | Some t -> enabled t

let events_on () =
  match !(Domain.DLS.get current) with
  | None -> false
  | Some t -> t.digesting || (enabled t && not t.direct)

(* %.17g round-trips any float (same convention as the BENCH records). *)
let fl x = Printf.sprintf "%.17g" x

let reason_name = function
  | Tail -> "tail"
  | Error -> "error"
  | Flush -> "flush"
  | Down -> "down"

let json_of_event = function
  | Link_enq { link; pkt; size } ->
    Printf.sprintf "\"ev\":\"link_enq\",\"link\":%S,\"pkt\":%d,\"size\":%d" link
      pkt size
  | Link_drop { link; pkt; reason } ->
    Printf.sprintf "\"ev\":\"link_drop\",\"link\":%S,\"pkt\":%d,\"reason\":%S"
      link pkt (reason_name reason)
  | Link_deliver { link; pkt; size } ->
    Printf.sprintf "\"ev\":\"link_deliver\",\"link\":%S,\"pkt\":%d,\"size\":%d"
      link pkt size
  | Link_dup { link; pkt } ->
    Printf.sprintf "\"ev\":\"link_dup\",\"link\":%S,\"pkt\":%d" link pkt
  | Link_final { link; offered; delivered; dropped; dups; queued; in_flight } ->
    Printf.sprintf
      "\"ev\":\"link_final\",\"link\":%S,\"offered\":%d,\"delivered\":%d,\"dropped\":%d,\"dups\":%d,\"queued\":%d,\"in_flight\":%d"
      link offered delivered dropped dups queued in_flight
  | Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
    Printf.sprintf
      "\"ev\":\"pit_register\",\"node\":%S,\"flow\":%d,\"lo\":%d,\"hi\":%d,\"forwarded\":%b,\"expiry\":%s,\"pending\":%d"
      node flow lo hi forwarded (fl expiry) pending
  | Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
    Printf.sprintf
      "\"ev\":\"pit_satisfy\",\"node\":%S,\"flow\":%d,\"lo\":%d,\"hi\":%d,\"fresh\":%b,\"age\":%s,\"pending\":%d"
      node flow lo hi fresh (fl age) pending
  | Pit_expire { node; flow; lo; hi; pending } ->
    Printf.sprintf
      "\"ev\":\"pit_expire\",\"node\":%S,\"flow\":%d,\"lo\":%d,\"hi\":%d,\"pending\":%d"
      node flow lo hi pending
  | Cache_occupancy { node; used; capacity } ->
    Printf.sprintf
      "\"ev\":\"cache_occupancy\",\"node\":%S,\"used\":%d,\"capacity\":%d" node
      used capacity
  | Deliver { node; flow; pos; len } ->
    Printf.sprintf
      "\"ev\":\"deliver\",\"node\":%d,\"flow\":%d,\"pos\":%d,\"len\":%d" node
      flow pos len
  | Complete { node; flow; bytes } ->
    Printf.sprintf "\"ev\":\"complete\",\"node\":%d,\"flow\":%d,\"bytes\":%d"
      node flow bytes
  | Rto_fire { who; elapsed; floor } ->
    Printf.sprintf "\"ev\":\"rto_fire\",\"who\":%S,\"elapsed\":%s,\"floor\":%s"
      who (fl elapsed) (fl floor)
  | Ack_processed
      {
        who;
        flow;
        cc;
        phase;
        cum_ack;
        sacks;
        rtt;
        snd_una;
        inflight;
        lost_pending;
        cwnd;
        rto;
      } ->
    Printf.sprintf
      "\"ev\":\"ack_processed\",\"who\":%S,\"flow\":%d,\"cc\":%S,\"phase\":%S,\"cum_ack\":%d,\"sacks\":[%s],\"rtt\":%s,\"snd_una\":%d,\"inflight\":%d,\"lost_pending\":%d,\"cwnd\":%s,\"rto\":%s"
      who flow cc phase cum_ack
      (String.concat ","
         (List.map (fun (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi) sacks))
      (match rtt with Some r -> fl r | None -> "null")
      snd_una inflight lost_pending (fl cwnd) (fl rto)
  | Seg_state { who; flow; seq; len; state } ->
    Printf.sprintf
      "\"ev\":\"seg_state\",\"who\":%S,\"flow\":%d,\"seq\":%d,\"len\":%d,\"state\":%S"
      who flow seq len
      (match state with
      | Seg_sent -> "sent"
      | Seg_retx -> "retx"
      | Seg_lost -> "lost")
  | Fault { what } -> Printf.sprintf "\"ev\":\"fault\",\"what\":%S" what

let json_of_record (r : record) =
  Printf.sprintf "{\"seq\":%d,\"t\":%s,%s}" r.seq (fl r.time)
    (json_of_event r.event)

(* The event's fields to its kind's callback; its time is already in
   [f.slots.time]. *)
let fold_event f = function
  | Link_enq { link; pkt; size } -> f.link_enq ~link ~pkt ~size
  | Link_drop { link; pkt; reason } -> f.link_drop ~link ~pkt ~reason
  | Link_deliver { link; pkt; size } -> f.link_deliver ~link ~pkt ~size
  | Link_dup { link; pkt } -> f.link_dup ~link ~pkt
  | Link_final { link; offered; delivered; dropped; dups; queued; in_flight } ->
    f.link_final ~link ~offered ~delivered ~dropped ~dups ~queued ~in_flight
  | Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
    f.pit_register ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending
  | Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
    f.slots.age <- age;
    f.pit_satisfy ~node ~flow ~lo ~hi ~fresh ~pending
  | Pit_expire { node; flow; lo; hi; pending } ->
    f.pit_expire ~node ~flow ~lo ~hi ~pending
  | Cache_occupancy { node; used; capacity } ->
    f.cache_occupancy ~node ~used ~capacity
  | Deliver { node; flow; pos; len } -> f.deliver ~node ~flow ~pos ~len
  | Complete { node; flow; bytes } -> f.complete ~node ~flow ~bytes
  | Rto_fire { who; elapsed; floor } -> f.rto_fire ~who ~elapsed ~floor
  | Ack_processed _ | Seg_state _ | Fault _ -> ()

let fold_record f (r : record) =
  f.slots.time <- r.time;
  fold_event f r.event

let record t event =
  let r = { seq = t.seq; time = t.clock (); event } in
  t.seq <- t.seq + 1;
  if t.digesting then t.digest <- mix_record r t.digest;
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity r;
  t.ring.(t.next) <- r;
  t.next <- (t.next + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1;
  List.iter (fun sink -> sink r) t.sinks;
  match t.fold with Some f -> fold_record f r | None -> ()

(* A [direct] recorder's next stamp: the clock time goes into the
   fold's [slots.time], and the result is the digest with the seq and
   time mixed in, as [mix_record] mixes them first (left as it is when
   not digesting); advances the seq. *)
let stamp t =
  let time = t.clock () in
  (match t.fold with Some f -> f.slots.time <- time | None -> ());
  let h = if t.digesting then mix_stamp ~seq:t.seq ~time t.digest else t.digest in
  t.seq <- t.seq + 1;
  h

let emit ev =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- mix_event ev h;
    match t.fold with Some f -> fold_event f ev | None -> ())
  | Some t when enabled t -> record t ev
  | _ -> ()

let link_enq ~link ~pkt ~size =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- link_enq_fields ~link ~pkt ~size h;
    match t.fold with Some f -> f.link_enq ~link ~pkt ~size | None -> ())
  | Some t when enabled t -> record t (Link_enq { link; pkt; size })
  | _ -> ()

let link_drop ~link ~pkt ~reason =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- link_drop_fields ~link ~pkt ~reason h;
    match t.fold with Some f -> f.link_drop ~link ~pkt ~reason | None -> ())
  | Some t when enabled t -> record t (Link_drop { link; pkt; reason })
  | _ -> ()

let link_deliver ~link ~pkt ~size =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- link_deliver_fields ~link ~pkt ~size h;
    match t.fold with Some f -> f.link_deliver ~link ~pkt ~size | None -> ())
  | Some t when enabled t -> record t (Link_deliver { link; pkt; size })
  | _ -> ()

let link_dup ~link ~pkt =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- link_dup_fields ~link ~pkt h;
    match t.fold with Some f -> f.link_dup ~link ~pkt | None -> ())
  | Some t when enabled t -> record t (Link_dup { link; pkt })
  | _ -> ()

let pit_register ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then
      t.digest <-
        pit_register_fields ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending h;
    match t.fold with
    | Some f -> f.pit_register ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending
    | None -> ())
  | Some t when enabled t ->
    record t
      (Pit_register { node; flow; lo; hi; forwarded; expiry; pending })
  | _ -> ()

(* The age stays an unboxed float: mixed inline, or written into the
   fold's flat [slots.age] rather than passed to its callback. *)
let pit_satisfy ~node ~flow ~lo ~hi ~fresh ~now ~stamps ~slot ~pending =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    let age = now -. stamps.(slot) in
    if t.digesting then
      t.digest <-
        pit_satisfy_head ~node ~flow ~lo ~hi ~fresh h |> mix_float age
        |> mix pending;
    match t.fold with
    | Some f ->
      f.slots.age <- age;
      f.pit_satisfy ~node ~flow ~lo ~hi ~fresh ~pending
    | None -> ())
  | Some t when enabled t ->
    let age = now -. stamps.(slot) in
    record t (Pit_satisfy { node; flow; lo; hi; fresh; age; pending })
  | _ -> ()

let pit_expire ~node ~flow ~lo ~hi ~pending =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then
      t.digest <- pit_expire_fields ~node ~flow ~lo ~hi ~pending h;
    match t.fold with
    | Some f -> f.pit_expire ~node ~flow ~lo ~hi ~pending
    | None -> ())
  | Some t when enabled t ->
    record t (Pit_expire { node; flow; lo; hi; pending })
  | _ -> ()

let cache_occupancy ~node ~used ~capacity =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then
      t.digest <- cache_occupancy_fields ~node ~used ~capacity h;
    match t.fold with
    | Some f -> f.cache_occupancy ~node ~used ~capacity
    | None -> ())
  | Some t when enabled t -> record t (Cache_occupancy { node; used; capacity })
  | _ -> ()

let deliver ~node ~flow ~pos ~len =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- deliver_fields ~node ~flow ~pos ~len h;
    match t.fold with Some f -> f.deliver ~node ~flow ~pos ~len | None -> ())
  | Some t when enabled t -> record t (Deliver { node; flow; pos; len })
  | _ -> ()

let complete ~node ~flow ~bytes =
  match installed () with
  | Some t when t.direct -> (
    let h = stamp t in
    if t.digesting then t.digest <- complete_fields ~node ~flow ~bytes h;
    match t.fold with Some f -> f.complete ~node ~flow ~bytes | None -> ())
  | Some t when enabled t -> record t (Complete { node; flow; bytes })
  | _ -> ()

(* No fold reads segment states: on a recorder that only folds this
   just takes a seq. *)
let seg_state ~who ~flow ~seq ~len ~state =
  match installed () with
  | Some t when t.direct ->
    let h = stamp t in
    if t.digesting then
      t.digest <- seg_state_fields ~who ~flow ~seq ~len ~state h
  | Some t when enabled t -> record t (Seg_state { who; flow; seq; len; state })
  | _ -> ()

let with_recorder t ~clock f =
  t.clock <- clock;
  install t;
  Fun.protect ~finally:uninstall f

let records t =
  let start = (t.next - t.len + t.capacity) mod t.capacity in
  List.init t.len (fun i -> t.ring.((start + i) mod t.capacity))

let count t = t.seq
let digest t = hex t.digest
let digest_records rs = hex (List.fold_left (Fun.flip mix_record) seed rs)
let combine digests = hex (List.fold_left (Fun.flip mix_string) seed digests)

let write_jsonl t oc =
  List.iter
    (fun r ->
      output_string oc (json_of_record r);
      output_char oc '\n')
    (records t)
