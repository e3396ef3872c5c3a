(** Token-bucket rate limiter.

    Paper §III-C: the Responder's Rate Limiter "uses this rate to control
    the data sending process by the token bucket algorithm".  Tokens are
    bytes; the bucket refills continuously at [rate] bytes/second up to
    [burst] bytes. *)

type t

val create : rate:float -> burst:float -> now:float -> t

val set_rate : t -> now:float -> float array -> int -> unit
(** [set_rate t ~now src i] makes [max 0 src.(i)] the refill rate (tokens
    accrued so far at the old rate are kept).  The rate is read from a
    slot: a float passed to another module's function would be boxed. *)

val try_consume : t -> now:float -> int -> bool
(** Take [n] tokens if available; returns whether it succeeded. *)

val time_until : t -> now:float -> int -> float
(** Seconds from [now] until [n] tokens will be available (0 if already). *)
