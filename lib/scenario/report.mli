(** Paper-style row printers shared by the bench harness and examples.

    This is the single module in [lib/] allowed to write to stdout
    (see the no-direct-print rule in LINT.md); scenario and experiment
    code formats all of its output through these helpers. *)

val ms : float -> float
(** Seconds to milliseconds. *)

val header : string -> unit
(** [=== title ===] banner. *)

val row : ('a, out_channel, unit) format -> 'a
(** Printf-style row under the current header. *)

val newline : unit -> unit

val cdf_rows : ?points:int -> string -> Leotp_util.Stats.t -> unit
(** Evenly spaced CDF sample points of a delay distribution, in ms. *)
