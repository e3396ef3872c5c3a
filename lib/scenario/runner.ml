(* Experiment job runner.

   Every figure/table expresses its sweep as a list of independent thunks
   (each builds its own engine, rng and topology); [map] executes them
   either inline (jobs = 1, the default — exactly the historical
   sequential behaviour) or on a shared Domain_pool.  Results always come
   back in submission order, and jobs reset domain-local id counters at
   their start, so output is bit-identical whatever the parallelism.

   The runner also aggregates per-job perf counters (simulated seconds,
   allocation) for the bench harness's BENCH_*.json records.

   This module *is* the process-wide job-runner singleton, but all of
   its shared state lives in Guarded / Atomic_counter cells, so every
   cross-domain access is a critical section or an atomic op by
   construction — verified by the `leotp_lint.exe` race pass, not by a blanket
   allow. *)

module Guarded = Leotp_util.Guarded
module Atomic_counter = Leotp_util.Atomic_counter

type counters = {
  jobs_run : int;
  sim_seconds : float;
  alloc_bytes : float;
      (** bytes allocated while running jobs, summed across worker domains *)
  packets : int;
      (** packets created while running jobs, summed across worker domains *)
}

type pool_state = {
  mutable jobs : int;
  mutable pool : Leotp_util.Domain_pool.t option;
}

let state = Guarded.create { jobs = 1; pool = None }
let c_jobs = Atomic_counter.create ()
let c_sim = Atomic_counter.Sum.create ()
let c_alloc = Atomic_counter.Sum.create ()
let c_packets = Atomic_counter.create ()

let jobs () = Guarded.with_ state (fun s -> s.jobs)

let set_jobs n =
  if n < 1 then invalid_arg "Runner.set_jobs: need n >= 1";
  let old =
    Guarded.with_ state (fun s ->
        if n = s.jobs then None
        else begin
          let old = s.pool in
          s.pool <- None;
          s.jobs <- n;
          old
        end)
  in
  Option.iter Leotp_util.Domain_pool.shutdown old

let reset_counters () =
  Atomic_counter.reset c_jobs;
  Atomic_counter.Sum.reset c_sim;
  Atomic_counter.Sum.reset c_alloc;
  Atomic_counter.reset c_packets

let counters () =
  {
    jobs_run = Atomic_counter.get c_jobs;
    sim_seconds = Atomic_counter.Sum.get c_sim;
    alloc_bytes = Atomic_counter.Sum.get c_alloc;
    packets = Atomic_counter.get c_packets;
  }

let note_sim_seconds s = if s > 0.0 then Atomic_counter.Sum.add c_sim s

(* Words allocated so far on this domain: young words as
   [Gc.minor_words] reads them (up to date), plus words allocated
   directly in the major heap ([major - promoted] from [Gc.counters]).
   [Gc.counters]' own minor count (and so [Gc.allocated_bytes]) folds a
   domain's young words in only at its minor collections, so a delta
   over it would depend on where a job's collections fall. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The allocation and the packet-creation count are domain-local, and
   each job runs entirely on one domain, so the deltas are exact even
   under --jobs N: the per-packet allocation metric gates on the same
   number whatever the parallelism. *)
let instrumented f () =
  let a0 = allocated_words () in
  let p0 = Leotp_net.Packet.created_on_domain () in
  let r = f () in
  let a1 = allocated_words () in
  let p1 = Leotp_net.Packet.created_on_domain () in
  Atomic_counter.incr c_jobs;
  Atomic_counter.Sum.add c_alloc
    ((a1 -. a0) *. float_of_int (Sys.word_size / 8));
  Atomic_counter.add c_packets (p1 - p0);
  r

let get_pool n =
  Guarded.with_ state (fun s ->
      match s.pool with
      | Some p -> p
      | None ->
        let p = Leotp_util.Domain_pool.create ~size:n in
        s.pool <- Some p;
        p)

let map thunks =
  match jobs () with
  | 1 -> List.map (fun f -> instrumented f ()) thunks
  | n ->
    let p = get_pool n in
    Leotp_util.Domain_pool.map p (fun f -> instrumented f ()) thunks

let grid rows cols f =
  let cells =
    List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows
  in
  let outs = map (List.map (fun (r, c) () -> f r c) cells) in
  (* Jobs were submitted row-major, so results regroup by chunks of
     [List.length cols]. *)
  let rec take n xs =
    if n = 0 then ([], xs)
    else
      match xs with
      | x :: tl ->
        let a, b = take (n - 1) tl in
        (x :: a, b)
      | [] -> assert false
  in
  let rec chunk outs = function
    | [] -> []
    | r :: rest ->
      let row_out, outs = take (List.length cols) outs in
      (r, List.combine cols row_out) :: chunk outs rest
  in
  chunk outs rows
