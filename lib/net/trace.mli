(** Packet-trace layer: per-packet lifecycle events from the link, node,
    midnode, consumer and TCP engines, recorded to a bounded in-memory
    ring with an incremental digest and optional live sinks.

    The recorder is domain-local (like the id counters in {!Packet} and
    {!Node}), so parallel sweep cells each observe only their own
    simulation and a seeded run produces the same digest under any
    [--jobs N].  When no recorder is installed every emit site reduces to
    one domain-local read, so tracing costs nothing when off. *)

type drop_reason = Tail | Error | Flush | Down

type seg_state = Seg_sent | Seg_retx | Seg_lost
(** Sender-side segment lifecycle, for the {!Ack_processed}/{!Seg_state}
    differential oracle (Leotp_check): a segment is transmitted, possibly
    retransmitted, and may be declared lost in between. *)

type event =
  | Link_enq of { link : string; pkt : int; size : int }
  | Link_drop of { link : string; pkt : int; reason : drop_reason }
  | Link_deliver of { link : string; pkt : int; size : int }
  | Link_dup of { link : string; pkt : int }
      (** fault-injected duplicate delivery *)
  | Link_final of {
      link : string;
      offered : int;
      delivered : int;
      dropped : int;
      dups : int;
      queued : int;  (** still in the droptail queue at end of run *)
      in_flight : int;  (** serialized/propagating, delivery never fired *)
    }
  | Pit_register of {
      node : string;
      flow : int;
      lo : int;
      hi : int;
      forwarded : bool;
      expiry : float;
      pending : int;  (** table size after the operation *)
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
      (** in-order prefix handed to the application *)
  | Complete of { node : int; flow : int; bytes : int }
  | Rto_fire of { who : string; elapsed : float; floor : float }
      (** [floor] = min (SRTT + 4*RTTVAR, armed timeout) at arm time *)
  | Ack_processed of {
      who : string;
      flow : int;
      cc : string;  (** congestion-controller name *)
      phase : string;  (** controller phase (e.g. BBR gain-cycle state) *)
      cum_ack : int;
      sacks : (int * int) list;
      rtt : float option;  (** RTT sample taken from this ack, if any *)
      snd_una : int;  (** sender state claimed {i after} processing *)
      inflight : int;
      lost_pending : int;
      cwnd : float;
      rto : float;  (** timeout the sender would arm now *)
    }
      (** One TCP sender finished processing one ACK: the ack's content
          plus the sender's resulting bookkeeping, checked against the
          reference model by [Leotp_check.Oracle]. *)
  | Seg_state of {
      who : string;
      flow : int;
      seq : int;
      len : int;
      state : seg_state;
    }  (** Sender segment transition: (re)transmitted or declared lost. *)
  | Fault of { what : string }

type record = { seq : int; time : float; event : event }

(** {2 Typed folds}

    A fold reads the fields of the event kinds it has a callback for:
    the per-packet kinds that have typed emitters (below) apart from
    [Seg_state], plus [Link_final] and [Rto_fire].  Each callback takes
    the labelled fields of its kind's event.  The two floats a callback
    may need beyond them sit in the fold's flat {!slots}, which the
    recorder writes before each call, so no float is boxed for it. *)

type slots = {
  mutable time : float;  (** the event's record time, before every call *)
  mutable age : float;  (** the [Pit_satisfy] age, before [pit_satisfy] *)
}

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

val fold_record : fold -> record -> unit
(** Feed one built record to a fold, as a recorder with that fold
    attached would (records of kinds it has no callback for are
    skipped).  The record path of every recorder goes through it. *)

type t

val create : ?capacity:int -> ?digesting:bool -> unit -> t
(** Ring capacity in records (default 65536).  The digest, any sinks
    and the fold cover every emitted record regardless of ring
    retention.  [digesting:false] skips the per-record hash (for
    recorders that only check, through a fold or a sink); {!digest}
    then stays at the seed.

    A recorder with a one-slot ring and no sink, which digests or folds
    or both, keeps no record at all ({!records} is empty): each emit
    mixes the record's seq, time and fields straight into the digest
    and hands the fields to the fold, and a typed emitter builds no
    event, so neither digesting nor folding costs an allocation.  A
    one-slot ring with a sink keeps the latest record. *)

val add_sink : t -> (record -> unit) -> unit
(** Live callback per record (e.g. the TCP oracle).  From here on every
    emit builds its record, including on a one-slot ring, and the fold
    (if any) reads it through {!fold_record}. *)

val add_fold : t -> fold -> unit
(** Attach the recorder's one fold (e.g. the invariant checker).  On a
    one-slot ring with no sink it takes the fields straight from the
    emitters; otherwise it reads each built record.  Raises
    [Invalid_argument] if a fold is already attached. *)

val on : unit -> bool
(** [true] iff a recorder is installed on this domain; guard for emit
    sites so the event payload is never allocated when tracing is off. *)

val events_on : unit -> bool
(** [true] iff the installed recorder reads whole events: it digests
    them, or keeps their records (a sink, or a ring of more than one
    slot).  A recorder whose only reader is a fold is {!on} but not
    [events_on]: an event kind the fold has no callback for has no
    reader there, so an emit site may skip building it. *)

val emit : event -> unit
(** Record on the current recorder; no-op when none is installed. *)

(** {2 Typed emitters}

    One per per-packet kind: [link_enq ~link ~pkt ~size] records what
    [emit (Link_enq { link; pkt; size })] records, with the same digest
    and the same fold call, and on a recorder that only digests and
    folds it builds neither the event nor its record.  Emit sites call
    them under their {!on} guard. *)

val link_enq : link:string -> pkt:int -> size:int -> unit
val link_drop : link:string -> pkt:int -> reason:drop_reason -> unit
val link_deliver : link:string -> pkt:int -> size:int -> unit
val link_dup : link:string -> pkt:int -> unit

val pit_register :
  node:string ->
  flow:int ->
  lo:int ->
  hi:int ->
  forwarded:bool ->
  expiry:float ->
  pending:int ->
  unit

val pit_satisfy :
  node:string ->
  flow:int ->
  lo:int ->
  hi:int ->
  fresh:bool ->
  now:float ->
  stamps:float array ->
  slot:int ->
  pending:int ->
  unit
(** The [Pit_satisfy] of an entry registered at [stamps.(slot)]: its
    [age] is [now -. stamps.(slot)], taken here, so the age reaches the
    digest, and the fold's [slots.age], without a boxed float crossing
    into this module. *)

val pit_expire :
  node:string -> flow:int -> lo:int -> hi:int -> pending:int -> unit

val cache_occupancy : node:string -> used:int -> capacity:int -> unit
val deliver : node:int -> flow:int -> pos:int -> len:int -> unit
val complete : node:int -> flow:int -> bytes:int -> unit

val seg_state :
  who:string -> flow:int -> seq:int -> len:int -> state:seg_state -> unit

val with_recorder : t -> clock:(unit -> float) -> (unit -> 'a) -> 'a
(** Install (with clock), run, uninstall (also on exception). *)

val records : t -> record list
(** Retained records, oldest first. *)

val count : t -> int
(** Total records emitted, including those evicted from the ring. *)

val digest : t -> string
(** Streaming structural hash over every record, as 16 hex digits.  Each
    record's seq, time (all 64 bits), constructor and every field in
    declaration order are mixed into an immediate [int] state, with
    strings and lists length-prefixed.  The hash allocates nothing, and
    on a recorder that only digests (see {!create}) neither does a
    typed emit or an {!emit} of an event already built. *)

val digest_records : record list -> string
(** The {!digest} of a fresh recorder that recorded exactly these
    records, in order (their own [seq] and [time] included). *)

val combine : string list -> string
(** One digest over several digests, in list order, through the same
    hash (e.g. a fleet run's shard digests in shard order). *)

val json_of_record : record -> string
(** One JSON object, no trailing newline; schema in EXPERIMENTS.md.
    Export only ([--trace]): the digest never renders JSON. *)

val write_jsonl : t -> out_channel -> unit
(** Retained records as JSON lines. *)
