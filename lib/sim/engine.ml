(* A pending event is a closure timer (one record per [schedule]) or a
   typed event: a [handler] built once and posted many times with an
   int argument, so dispatching it allocates nothing. *)
type event =
  | Timer of {
      seq : int;  (** < 0 for the proxy handle of an [every] recurrence *)
      action : unit -> unit;
      mutable cancelled : bool;
      mutable fired : bool;
      owner : t;
    }
  | Handler of { owner : t; run : int -> unit }

(* Pending events form a binary min-heap on (time, seq), stored as
   parallel arrays so an event's time stays an unboxed float and its
   argument an immediate int.  Slots [0, size) are live. *)
and t = {
  mutable clock : float;
      (** boxed: [now] returns it without allocating; written only when
          time advances *)
  mutable next_seq : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable args : int array;
  mutable events : event array;
  mutable size : int;
  mutable cancelled_pending : int;
      (** cancelled-but-not-yet-popped timers still in the heap *)
  mutable processed : int;  (** events fired over the engine's lifetime *)
  idle : event;  (** inert; fills the heap's unused cells *)
}

type timer = event
type handler = event

let create () =
  let rec t =
    {
      clock = 0.0;
      next_seq = 0;
      times = [||];
      seqs = [||];
      args = [||];
      events = [||];
      size = 0;
      cancelled_pending = 0;
      processed = 0;
      idle = Handler { owner = t; run = ignore };
    }
  in
  t

let now t = t.clock

(* Kept out of line so the accepting path is one comparison. *)
let non_finite fn time =
  invalid_arg (Printf.sprintf "Engine.%s: non-finite time %g" fn time)

(* ------------------------------------------------------------------ *)
(* The heap.  Sift loops recurse on indices and read times straight
   from [times]: a float passed to a function that is not inlined is
   boxed, and a local [ref] is a minor-heap cell. *)

let before t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  ti < tj || (ti = tj && t.seqs.(i) < t.seqs.(j))

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.args.(dst) <- t.args.(src);
  t.events.(dst) <- t.events.(src)

let swap t i j =
  let time = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- time;
  let seq = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- seq;
  let arg = t.args.(i) in
  t.args.(i) <- t.args.(j);
  t.args.(j) <- arg;
  let ev = t.events.(i) in
  t.events.(i) <- t.events.(j);
  t.events.(j) <- ev

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && before t l i then l else i in
  let smallest = if r < t.size && before t r smallest then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* The slot for one more event; the arrays grow by doubling. *)
let reserve t =
  let n = t.size in
  if n = Array.length t.events then begin
    let cap = max 16 (2 * n) in
    let times = Array.make cap 0.0 in
    let seqs = Array.make cap 0 in
    let args = Array.make cap 0 in
    let events = Array.make cap t.idle in
    Array.blit t.times 0 times 0 n;
    Array.blit t.seqs 0 seqs 0 n;
    Array.blit t.args 0 args 0 n;
    Array.blit t.events 0 events 0 n;
    t.times <- times;
    t.seqs <- seqs;
    t.args <- args;
    t.events <- events
  end;
  n
(* doubling growth: amortized O(1), not a steady-state allocation *)
[@@leotp.allow "hot-path-may-alloc"]

(* Completes the push of slot [i] = [reserve t], whose time the caller
   has written (passing it here would box it). *)
let enqueue t i ev arg =
  t.seqs.(i) <- t.next_seq;
  t.args.(i) <- arg;
  t.events.(i) <- ev;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i

let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    move t ~src:last ~dst:0;
    sift_down t 0
  end

(* ------------------------------------------------------------------ *)
(* Scheduling *)

let schedule_at t ~time action =
  if not (Float.is_finite time) then non_finite "schedule_at" time;
  let timer =
    (* the timer record is a closure timer's unit of work; the per-packet
       link events are typed and allocate none *)
    (Timer { seq = t.next_seq; action; cancelled = false; fired = false; owner = t }
    [@leotp.allow "hot-path-may-alloc"])
  in
  let i = reserve t in
  t.times.(i) <- Float.max time t.clock;
  enqueue t i timer 0;
  timer

let schedule t ~after action =
  schedule_at t ~time:(t.clock +. Float.max 0.0 after) action

(* One handler record per link at set-up, not per event. *)
let handler t run = Handler { owner = t; run }

let foreign_handler () = invalid_arg "Engine.post: handler of another engine"

let post t ~after h arg =
  let time = t.clock +. Float.max 0.0 after in
  if not (Float.is_finite time) then non_finite "post" time;
  (match h with
  | Handler { owner; _ } when owner == t -> ()
  | Handler _ | Timer _ -> foreign_handler ());
  let i = reserve t in
  t.times.(i) <- Float.max time t.clock;
  enqueue t i h arg

(* ------------------------------------------------------------------ *)
(* Cancellation stays O(1) and lazy, but once cancelled timers dominate
   the heap we compact it: a long-lived engine that keeps rescheduling
   and cancelling RTO timers would otherwise retain every dead timer
   (and its action closure) until its pop time arrives. *)
let compact_min = 64

let live t i =
  match t.events.(i) with
  | Timer { cancelled; _ } -> not cancelled
  | Handler _ -> true

(* Slides the live events of [i, size) down to [j, ...); returns how
   many are live in all. *)
let rec pack t i j =
  if i = t.size then j
  else if live t i then begin
    if i <> j then move t ~src:i ~dst:j;
    pack t (i + 1) (j + 1)
  end
  else pack t (i + 1) j

let compact t =
  let n = pack t 0 0 in
  t.size <- n;
  (* Floyd heapify: the survivors kept array order, not heap order. *)
  for i = (n / 2) - 1 downto 0 do
    sift_down t i
  done;
  (* Drop the references to the dead timers: the point of compacting is
     releasing what the heap was retaining. *)
  Array.fill t.events n (Array.length t.events - n) t.idle;
  t.cancelled_pending <- 0

let cancel = function
  | Timer ({ cancelled = false; fired = false; _ } as r) ->
    r.cancelled <- true;
    (* Proxy handles from [every] (seq < 0) never enter the heap. *)
    if r.seq >= 0 then begin
      let t = r.owner in
      t.cancelled_pending <- t.cancelled_pending + 1;
      if t.cancelled_pending >= compact_min && 2 * t.cancelled_pending > t.size
      then compact t
    end
  | Timer _ | Handler _ -> ()

let is_pending = function
  | Timer { cancelled; fired; _ } -> (not cancelled) && not fired
  | Handler _ -> false

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let advance t =
  let time = t.times.(0) in
  if time > t.clock then t.clock <- time

(* Fires (or discards, if cancelled) the earliest event; [size > 0]. *)
let step t =
  let arg = t.args.(0) in
  match t.events.(0) with
  | Timer { cancelled = true; _ } ->
    remove_root t;
    t.cancelled_pending <- t.cancelled_pending - 1
  | Timer ({ action; _ } as r) ->
    advance t;
    remove_root t;
    r.fired <- true;
    t.processed <- t.processed + 1;
    action ()
  | Handler { run; _ } ->
    advance t;
    remove_root t;
    t.processed <- t.processed + 1;
    run arg

let run ?until t =
  match until with
  | None ->
    while t.size > 0 do
      step t
    done
  | Some limit ->
    if Float.is_nan limit then non_finite "run ~until" limit;
    (* A cancelled timer at the root is discarded whatever its time. *)
    while t.size > 0 && ((not (live t 0)) || t.times.(0) <= limit) do
      step t
    done;
    if limit > t.clock then t.clock <- limit

let pending_events t = t.size
let cancelled_pending t = t.cancelled_pending
let events_processed t = t.processed

let every t ~period ?start action =
  if not (Float.is_finite period) then non_finite "every" period;
  assert (period > 0.0);
  let start = match start with Some s -> s | None -> period in
  (* The recurrence is controlled through a proxy handle whose [cancelled]
     flag is inherited by each rescheduling. *)
  let handle =
    Timer { seq = -1; action = ignore; cancelled = false; fired = false; owner = t }
  in
  let rec fire () =
    if is_pending handle then begin
      action ();
      if is_pending handle then ignore (schedule t ~after:period fire)
    end
  in
  ignore (schedule t ~after:start fire);
  handle
