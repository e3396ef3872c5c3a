(** Seeded scenario fuzzer for the protocol oracle.

    Generates random chain topologies, loss rates, fault schedules and
    concurrency levels (a third of the cases interleave 2-8 flows
    through a shared dumbbell bottleneck), runs each under LEOTP and
    every TCP congestion-control variant with the differential oracle
    ({!Leotp_check.Oracle}) and the scenario invariant checker attached,
    and shrinks failing cases to a minimal replayable spec.

    Deterministic in the root seed; case x protocol cells run through
    {!Runner.map}, so [Runner.set_jobs] parallelizes a sweep without
    changing its outcome. *)

type spec = {
  seed : int;  (** simulation seed for this case *)
  hops : int;
  flows : int;
      (** 1 = one flow over a chain; >1 = that many concurrent flows
          sharing a dumbbell bottleneck (staggered 1 s apart).  Replay
          specs without a [flows=] field parse as 1. *)
  bw_mbps : float;  (** per-hop bandwidth *)
  delay : float;  (** per-hop one-way delay, seconds *)
  plr : float;
  bytes : int;  (** transfer size *)
  duration : float;  (** wall cap; fixed transfers may finish earlier *)
  faults : Leotp_sim.Fault.schedule;
}

type failure = {
  protocol : string;  (** "leotp" or a CC name *)
  spec : spec;  (** shrunk spec *)
  original : spec;
  problems : string list;  (** oracle divergences + invariant failures *)
  shrink_runs : int;  (** simulations spent shrinking *)
}

type outcome = {
  cases : int;
  runs : int;  (** simulations in the main sweep (cases x protocols) *)
  oracle_acks : int;  (** ACK events checked across the sweep *)
  failures : failure list;
}

val gen : seed:int -> int -> spec list
(** [gen ~seed n] is the deterministic case list for a sweep. *)

val run : seed:int -> cases:int -> unit -> outcome
(** Full sweep; shrinking is sequential and only runs for failing
    cells. *)

val replay_to_string : protocol:string -> spec -> string
(** One-line replay spec, [|]-separated [key=value] fields; floats use
    ["%.17g"] so the round-trip is exact. *)

val replay_of_string : string -> (string * spec, string) result

val replay : string -> (string * spec * string list, string) result
(** Parse a replay spec and re-run it, returning the problems found
    (empty = the case no longer fails). *)
