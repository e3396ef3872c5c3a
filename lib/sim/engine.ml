(* One event record serves both kinds of event.  A typed handler
   ([armed = typed]) is built once and posted many times with an int
   argument, so it may sit in many heap slots, all live.  A timer is
   built once and queued at most once: [armed] holds the seq of its one
   slot, or [unarmed].  A slot whose seq no longer matches its timer's
   [armed] (the timer was cancelled, or re-armed since) is dead and is
   dropped when it reaches the root or the heap compacts. *)
type event = { owner : t; run : int -> unit; mutable armed : int }

(* Pending events form a binary min-heap on (time, seq), stored as
   parallel arrays so an event's time stays an unboxed float and its
   argument an immediate int.  Slots [0, size) are in use. *)
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
      (** dead timer slots still in the heap *)
  mutable processed : int;  (** events fired over the engine's lifetime *)
  post_delay : float array;
      (** one slot: the delay {!post} reads, written by the poster (a
          float argument would be boxed) *)
  idle : event;  (** inert; fills the heap's unused slots *)
}

type timer = event
type handler = event

(* Seqs are non-negative, so neither mark matches a slot's seq. *)
let typed = -2
let unarmed = -1

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
      post_delay = [| 0.0 |];
      idle = { owner = t; run = ignore; armed = typed };
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
(* Cancellation stays O(1) and lazy, but once dead slots dominate the
   heap we compact it: a long-lived engine that keeps re-arming and
   cancelling RTO timers would otherwise retain every dead slot until
   its pop time arrives. *)
let compact_min = 64

let live t i =
  let armed = t.events.(i).armed in
  armed = typed || armed = t.seqs.(i)

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
  (* Drop the references the vacated slots hold: the point of compacting
     is releasing what the heap was retaining (a cancelled one-shot and
     its closure). *)
  Array.fill t.events n (Array.length t.events - n) t.idle;
  t.cancelled_pending <- 0

let cancel tm =
  if tm.armed >= 0 then begin
    tm.armed <- unarmed;
    let t = tm.owner in
    t.cancelled_pending <- t.cancelled_pending + 1;
    if t.cancelled_pending >= compact_min && 2 * t.cancelled_pending > t.size
    then compact t
  end

let is_pending tm = tm.armed >= 0

(* ------------------------------------------------------------------ *)
(* Scheduling.  Arming a queued timer first kills its old slot, the way
   [cancel] does, so the timer keeps at most one live slot. *)

let timer t f = { owner = t; run = (fun _ -> f ()); armed = unarmed }
(* one record and closure per timer, built at set-up and re-armed for
   its lifetime: not a per-event allocation *)
[@@leotp.allow "hot-path-may-alloc"]

let arm tm ~after =
  let t = tm.owner in
  let time = t.clock +. Float.max 0.0 after in
  if not (Float.is_finite time) then non_finite "arm" time;
  cancel tm;
  let i = reserve t in
  t.times.(i) <- Float.max time t.clock;
  tm.armed <- t.next_seq;
  enqueue t i tm 0

let arm_at tm ~time =
  if not (Float.is_finite time) then non_finite "arm_at" time;
  let t = tm.owner in
  cancel tm;
  let i = reserve t in
  t.times.(i) <- Float.max time t.clock;
  tm.armed <- t.next_seq;
  enqueue t i tm 0

let schedule t ~after f =
  let tm = timer t f in
  arm tm ~after;
  tm

let schedule_at t ~time f =
  let tm = timer t f in
  arm_at tm ~time;
  tm

let handler t run = { owner = t; run; armed = typed }

let foreign_handler () = invalid_arg "Engine.post: handler of another engine"

let post_delay t = t.post_delay

let post t h arg =
  let time = t.clock +. Float.max 0.0 t.post_delay.(0) in
  if not (Float.is_finite time) then non_finite "post" time;
  if h.owner != t then foreign_handler ();
  let i = reserve t in
  t.times.(i) <- Float.max time t.clock;
  enqueue t i h arg

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let fire t ev arg =
  let time = t.times.(0) in
  if time > t.clock then t.clock <- time;
  remove_root t;
  t.processed <- t.processed + 1;
  ev.run arg

(* Fires (or drops, if dead) the earliest event; [size > 0]. *)
let step t =
  let ev = t.events.(0) in
  if ev.armed = typed then fire t ev t.args.(0)
  else if ev.armed = t.seqs.(0) then begin
    (* unarmed before it runs, so its action may re-arm it *)
    ev.armed <- unarmed;
    fire t ev 0
  end
  else begin
    remove_root t;
    t.cancelled_pending <- t.cancelled_pending - 1
  end

let run ?until t =
  match until with
  | None ->
    while t.size > 0 do
      step t
    done
  | Some limit ->
    if Float.is_nan limit then non_finite "run ~until" limit;
    (* A dead slot at the root is dropped whatever its time. *)
    while t.size > 0 && ((not (live t 0)) || t.times.(0) <= limit) do
      step t
    done;
    if limit > t.clock then t.clock <- limit

let pending_events t = t.size
let cancelled_pending t = t.cancelled_pending
let events_processed t = t.processed
