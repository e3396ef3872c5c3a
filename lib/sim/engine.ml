type timer = {
  time : float;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : timer Leotp_util.Pqueue.t;
  mutable cancelled_pending : int;
      (** cancelled-but-not-yet-popped timers still in [queue] *)
  mutable processed : int;  (** events fired over the engine's lifetime *)
}

let compare_timer a b =
  match Float.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    queue = Leotp_util.Pqueue.create ~cmp:compare_timer;
    cancelled_pending = 0;
    processed = 0;
  }

let now t = t.clock

(* Kept out of line so the accepting path is one comparison. *)
let non_finite fn time =
  invalid_arg (Printf.sprintf "Engine.%s: non-finite time %g" fn time)

let schedule_at t ~time action =
  if not (Float.is_finite time) then non_finite "schedule_at" time;
  let time = Float.max time t.clock in
  let timer =
    (* the timer record is the simulator's unit of work — one per
       scheduled event is the cost of discrete-event simulation *)
    ({ time; seq = t.next_seq; action; cancelled = false; fired = false; owner = t }
    [@leotp.allow "hot-path-may-alloc"])
  in
  t.next_seq <- t.next_seq + 1;
  Leotp_util.Pqueue.push t.queue timer;
  timer

let schedule t ~after action =
  schedule_at t ~time:(t.clock +. Float.max 0.0 after) action

(* Cancellation stays O(1) and lazy, but once cancelled timers dominate
   the heap we compact it: a long-lived engine that keeps rescheduling
   and cancelling RTO timers would otherwise retain every dead timer
   (and its action closure) until its pop time arrives. *)
let compact_min = 64

let maybe_compact t =
  if
    t.cancelled_pending >= compact_min
    && 2 * t.cancelled_pending > Leotp_util.Pqueue.length t.queue
  then begin
    (* compaction runs once per [compact_min] cancellations, amortized
       far below one allocation per event *)
    Leotp_util.Pqueue.filter_in_place t.queue
      ~keep:((fun tm -> not tm.cancelled) [@leotp.allow "hot-path-may-alloc"]);
    t.cancelled_pending <- 0
  end

let cancel timer =
  if (not timer.cancelled) && not timer.fired then begin
    timer.cancelled <- true;
    (* Proxy handles from [every] (seq < 0) never enter the queue. *)
    if timer.seq >= 0 then begin
      let t = timer.owner in
      t.cancelled_pending <- t.cancelled_pending + 1;
      maybe_compact t
    end
  end

let is_pending timer = (not timer.cancelled) && not timer.fired

let note_popped t timer =
  if timer.cancelled then t.cancelled_pending <- t.cancelled_pending - 1

(* Directly recursive (no local [next] closure): [step] runs once per
   event, and a closure capturing [t] is a minor-heap allocation. *)
let rec step t =
  match Leotp_util.Pqueue.pop t.queue with
  | None -> false
  | Some timer when timer.cancelled ->
    note_popped t timer;
    step t
  | Some timer ->
    t.clock <- Float.max t.clock timer.time;
    timer.fired <- true;
    t.processed <- t.processed + 1;
    timer.action ();
    true

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    if Float.is_nan limit then non_finite "run ~until" limit;
    let continue = ref true in
    while !continue do
      match Leotp_util.Pqueue.peek t.queue with
      | Some timer when timer.cancelled ->
        ignore (Leotp_util.Pqueue.pop t.queue);
        note_popped t timer
      | Some timer when timer.time <= limit -> ignore (step t)
      | Some _ | None ->
        t.clock <- Float.max t.clock limit;
        continue := false
    done

let pending_events t = Leotp_util.Pqueue.length t.queue
let cancelled_pending t = t.cancelled_pending
let events_processed t = t.processed

let every t ~period ?start action =
  if not (Float.is_finite period) then non_finite "every" period;
  assert (period > 0.0);
  let start = match start with Some s -> s | None -> period in
  (* The recurrence is controlled through a proxy handle whose [cancelled]
     flag is inherited by each rescheduling. *)
  let handle =
    {
      time = t.clock;
      seq = -1;
      action = ignore;
      cancelled = false;
      fired = false;
      owner = t;
    }
  in
  let rec fire () =
    if not handle.cancelled then begin
      action ();
      if not handle.cancelled then ignore (schedule t ~after:period fire)
    end
  in
  ignore (schedule t ~after:start fire);
  handle
