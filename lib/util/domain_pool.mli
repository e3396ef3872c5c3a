(** Fixed-size work-queue pool of OCaml 5 domains.

    Intended for coarse-grained, independent jobs (one simulation run per
    task).  Tasks must not share mutable state with each other; anything
    domain-local (e.g. {!Leotp_net.Packet} id counters) is per-worker, so
    a task that resets such state at its start behaves identically to a
    sequential run. *)

type t

val create : size:int -> t
(** Spawn [size] worker domains ([size >= 1]). *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task.  Raises [Invalid_argument] after {!shutdown}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every element on the pool's workers, blocking the caller
    until all are done; results keep list order.  Execution order is
    unspecified.  If any application raised, the first such exception (in
    list order) is re-raised after all tasks complete. *)

val shutdown : t -> unit
(** Finish queued tasks and join all workers.  Idempotent. *)
