(** A value that carries its own mutex, so unlocked access is
    unrepresentable.

    Shared mutable state that must cross domains (the job-runner
    singleton, a pool's work queue) lives inside a ['a t]; the payload
    is only reachable through {!with_} and {!await}, both of which hold
    the lock for the duration of the callback.  The leotp-race static
    pass of [leotp_lint.exe] treats these regions as critical
    sections, so code written against this interface analyses as
    domain-safe by construction.

    The callback must not call back into the same [t] (the mutex is not
    reentrant) and should not block on other locks (classic lock-order
    discipline applies). *)

type 'a t

val create : 'a -> 'a t

val with_ : 'a t -> ('a -> 'b) -> 'b
(** [with_ t f] runs [f] on the payload with the lock held and returns
    its result.  Waiters in {!await} are woken on exit (the payload may
    have been mutated). *)

val await : 'a t -> ('a -> 'b option) -> 'b
(** [await t f] blocks until [f payload] returns [Some r] (re-checked,
    under the lock, every time another domain leaves a {!with_}/{!set}
    region) and returns [r].  [f] runs with the lock held and may
    mutate the payload (e.g. popping the queue element it waited
    for). *)

val get : 'a t -> 'a
(** Snapshot the payload under the lock.  Only safe when the payload is
    immutable (or treated as such by every writer, which replaces it
    via {!set}). *)

val set : 'a t -> 'a -> unit
(** Replace the payload under the lock and wake waiters. *)
