(* Lock-free counters for cross-domain aggregation (job counts,
   per-domain allocation totals).  Like Guarded, the point is to make
   the safe operation the only representable one: the underlying
   [Atomic.t] never escapes, so every access is an atomic op. *)

type t = int Atomic.t

let create () = Atomic.make 0
let incr = Atomic.incr
let add t n = ignore (Atomic.fetch_and_add t n : int)
let get = Atomic.get
let reset t = Atomic.set t 0

module Sum = struct
  type t = float Atomic.t

  let create () = Atomic.make 0.0

  (* No fetch-and-add for floats: CAS-retry.  Note that under
     parallelism the *order* of additions (hence rounding) depends on
     scheduling, so sums fed from worker domains are perf telemetry,
     not figure data. *)
  let rec add t x =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (cur +. x)) then add t x

  let get = Atomic.get
  let reset t = Atomic.set t 0.0
end
