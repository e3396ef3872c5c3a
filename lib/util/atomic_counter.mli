(** Lock-free cross-domain counters.

    A thin veil over [Atomic] that keeps the atomic value abstract, so
    the only representable operations are the atomic ones — the shape
    the leotp-race static pass recognises as safe.  Used by
    {!Leotp_scenario.Runner} for its perf counters. *)

type t
(** A monotonically updated integer counter. *)

val create : unit -> t
(** Starts at 0. *)

val incr : t -> unit
val add : t -> int -> unit
val get : t -> int
val reset : t -> unit

(** Float accumulator (CAS loop; no fetch-and-add for floats).  The
    accumulation order under parallelism is scheduling-dependent, so
    use only for telemetry, never for figure data. *)
module Sum : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val get : t -> float
  val reset : t -> unit
end
