(** Per-flow measurement record, shared across protocols so scenarios can
    compare LEOTP and TCP variants uniformly.

    OWD here is the application-level data-retrieval delay of a byte range:
    the time between the moment the range was first requested/sent and the
    moment it is delivered at the receiver — this is what the paper's OWD
    CDFs (Figs 3, 10, 16, 17) measure, and it includes retransmission
    delays. *)

type t

val create : flow:int -> t

val on_send : t -> bytes:int -> unit
(** Origin sender put [bytes] on the wire (including retransmissions). *)

val on_retransmit : t -> unit

val sent : t -> float array
(** One slot: the time the range {!on_deliver} records was first sent,
    written by the receiver before it calls {!on_deliver} (a float
    argument would be boxed). *)

val on_deliver : t -> now:float -> bytes:int -> retx:bool -> unit
(** The receiver delivered [bytes] of new data to the application with
    one-way delay [now -. (sent t).(0)]; [retx] marks data that needed
    retransmission.  Allocates nothing once the collectors have
    grown. *)

val set_started : t -> float -> unit
val set_finished : t -> float -> unit
val app_bytes : t -> int
val wire_bytes_sent : t -> int
val retransmissions : t -> int
val owd : t -> Leotp_util.Stats.t
val retx_owd : t -> Leotp_util.Stats.t
val delivery : t -> Leotp_util.Timeseries.t

val completion_time : t -> float option
val goodput : t -> lo:float -> hi:float -> float
(** Application bytes/second delivered in the window. *)
