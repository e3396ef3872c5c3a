(* Tests for the discrete-event engine: ordering, determinism, timers. *)

open Leotp_sim

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule e ~after:2.0 (note "b"));
  ignore (Engine.schedule e ~after:1.0 (note "a"));
  ignore (Engine.schedule e ~after:3.0 (note "c"));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "order and times"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int))
    "FIFO among equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_schedule_from_handler () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         log := ("outer", Engine.now e) :: !log;
         ignore
           (Engine.schedule e ~after:0.5 (fun () ->
                log := ("inner", Engine.now e) :: !log))));
  Engine.run e;
  Alcotest.(check (list (pair string (float 1e-9))))
    "nested schedule"
    [ ("outer", 1.0); ("inner", 1.5) ]
    (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.schedule e ~after:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.is_pending t);
  Engine.cancel t;
  Alcotest.(check bool) "not pending" false (Engine.is_pending t);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Engine.cancel t (* idempotent *)

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only first five" 5 !count;
  Alcotest.(check int) "processed counter" 5 (Engine.events_processed e);
  Alcotest.(check (float 1e-9)) "clock at limit" 5.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "rest" 10 !count

let test_clock_monotone_negative_after () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:5.0 ignore);
  Engine.run e;
  (* Negative [after] clamps to "now". *)
  let fired_at = ref Float.nan in
  ignore (Engine.schedule e ~after:(-3.0) (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "clamped" 5.0 !fired_at

(* A recurrence is a timer whose action re-arms it: it is disarmed
   before its action runs. *)
let periodic e ~period times =
  let rec tm =
    lazy
      (Engine.timer e (fun () ->
           times := Engine.now e :: !times;
           Engine.arm (Lazy.force tm) ~after:period))
  in
  Lazy.force tm

let test_rearmed_timer () =
  let e = Engine.create () in
  let times = ref [] in
  let tm = periodic e ~period:1.0 times in
  Engine.arm tm ~after:1.0;
  Engine.run ~until:3.5 e;
  Alcotest.(check (list (float 1e-9))) "periodic" [ 1.0; 2.0; 3.0 ] (List.rev !times);
  Alcotest.(check bool) "re-armed by its action" true (Engine.is_pending tm);
  Engine.cancel tm;
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "cancelled" 3 (List.length !times)

let test_rearmed_timer_start () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.arm (periodic e ~period:2.0 times) ~after:0.5;
  Engine.run ~until:5.0 e;
  Alcotest.(check (list (float 1e-9)))
    "start offset" [ 0.5; 2.5; 4.5 ] (List.rev !times)

let test_cancel_compaction () =
  (* A long-lived engine that schedules and cancels many timers (the RTO
     pattern) must not retain the cancelled ones until their pop time:
     once cancelled timers dominate, the queue compacts. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let keep = ref [] in
  for i = 1 to 1000 do
    let t =
      Engine.schedule e ~after:(1000.0 +. float_of_int i) (fun () -> incr fired)
    in
    if i mod 100 = 0 then keep := t :: !keep else Engine.cancel t
  done;
  Alcotest.(check bool)
    (Printf.sprintf "queue compacted (pending=%d)" (Engine.pending_events e))
    true
    (Engine.pending_events e < 200);
  Alcotest.(check bool)
    (Printf.sprintf "few cancelled retained (%d)" (Engine.cancelled_pending e))
    true
    (Engine.cancelled_pending e <= Engine.pending_events e);
  Engine.run e;
  Alcotest.(check int) "survivors fire" 10 !fired

let test_cancel_compaction_order () =
  (* Compaction must not disturb firing order of survivors. *)
  let e = Engine.create () in
  let log = ref [] in
  let timers =
    List.init 500 (fun i ->
        (i, Engine.schedule e ~after:(float_of_int (i + 1)) (fun () -> log := i :: !log)))
  in
  List.iter (fun (i, t) -> if i mod 7 <> 0 then Engine.cancel t) timers;
  Engine.run e;
  let expect = List.filter (fun i -> i mod 7 = 0) (List.init 500 Fun.id) in
  Alcotest.(check (list int)) "order preserved" expect (List.rev !log)

let test_determinism () =
  let run () =
    let e = Engine.create () in
    let log = ref [] in
    let rng = Leotp_util.Rng.create ~seed:11 in
    for i = 0 to 50 do
      let t = Leotp_util.Rng.float rng 10.0 in
      ignore (Engine.schedule e ~after:t (fun () -> log := i :: !log))
    done;
    Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list int)) "identical runs" (run ()) (run ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_non_finite_times () =
  (* A NaN time would sort ahead of every event: [run ~until] would stop
     at once with nothing fired, and a plain [run] would set the clock to
     NaN.  Every entry point refuses it, naming the time. *)
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule_at e ~time:1.0 (fun () -> incr fired));
  let tm = Engine.timer e ignore in
  List.iter
    (fun (what, shown, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names %s" what msg shown)
          true (contains msg shown))
    [
      ("schedule_at nan", "nan",
       fun () -> ignore (Engine.schedule_at e ~time:Float.nan ignore));
      ("schedule_at inf", "inf",
       fun () -> ignore (Engine.schedule_at e ~time:Float.infinity ignore));
      ("schedule_at -inf", "-inf",
       fun () -> ignore (Engine.schedule_at e ~time:Float.neg_infinity ignore));
      ("schedule nan", "nan",
       fun () -> ignore (Engine.schedule e ~after:Float.nan ignore));
      ("schedule inf", "inf",
       fun () -> ignore (Engine.schedule e ~after:Float.infinity ignore));
      ("arm nan", "nan", fun () -> Engine.arm tm ~after:Float.nan);
      ("arm inf", "inf", fun () -> Engine.arm tm ~after:Float.infinity);
      ("arm_at nan", "nan", fun () -> Engine.arm_at tm ~time:Float.nan);
      ("arm_at -inf", "-inf", fun () -> Engine.arm_at tm ~time:Float.neg_infinity);
      ("run until nan", "nan", fun () -> Engine.run ~until:Float.nan e);
      ("post nan", "nan",
       fun () ->
         (Engine.post_delay e).(0) <- Float.nan;
         Engine.post e (Engine.handler e ignore) 0);
      ("post inf", "inf",
       fun () ->
         (Engine.post_delay e).(0) <- Float.infinity;
         Engine.post e (Engine.handler e ignore) 0);
      ("post foreign handler", "another engine",
       fun () ->
         (Engine.post_delay e).(0) <- 1.0;
         Engine.post e (Engine.handler (Engine.create ()) ignore) 0);
    ];
  Alcotest.(check int) "only the finite event queued" 1
    (Engine.pending_events e);
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "finite event fired" 1 !fired;
  Alcotest.(check (float 0.0)) "clock at limit" 10.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Differential model: random scripts run on the engine and on a list  *)
(* kept sorted by (time, seq), comparing fire order, the clock and the *)
(* event count after every step.                                       *)

type handler =
  | Leaf
  | Spawn of float  (** schedule a leaf this far ahead *)
  | Cancel_other of int  (** cancel a handle, by index modulo the count *)
  | Rearm_other of int * float
      (** re-arm a handle (itself included) [~after] this much, on the
          action's first firing only, so every script terminates *)

type op =
  | Sched of float * handler  (** [schedule ~after] *)
  | Sched_at of float * handler  (** [schedule_at], past times included *)
  | Batch of int * float  (** [n] leaves from [after] on, with ties *)
  | Cancel of int
  | Cancel_all_but of int  (** every handle whose index mod [k] <> 0 *)
  | Periodic of float * float option * int
      (** period, start: a timer first armed [~after:start] (default the
          period) whose action re-arms it [~after:period] until it has
          fired [k] times *)
  | Rearm of int * float
      (** [arm ~after] a handle, pending (its old slot dies), fired or
          cancelled alike *)
  | Rearm_at of int * float  (** [arm_at], past times included *)
  | Run of float  (** [run ~until:(now + d)] *)
  | Post of float * int
      (** [post ~after] of the script's typed handler; on firing with
          [n > 0] it posts [n - 1] again (even [n]) or schedules a leaf
          and posts [n - 1] at once (odd [n]) *)

let show_handler = function
  | Leaf -> "leaf"
  | Spawn d -> Printf.sprintf "spawn %g" d
  | Cancel_other i -> Printf.sprintf "cancel %d" i
  | Rearm_other (i, d) -> Printf.sprintf "rearm %d %g" i d

let show_op = function
  | Sched (d, h) -> Printf.sprintf "sched %g (%s)" d (show_handler h)
  | Sched_at (t, h) -> Printf.sprintf "sched_at %g (%s)" t (show_handler h)
  | Batch (n, d) -> Printf.sprintf "batch %d %g" n d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Cancel_all_but k -> Printf.sprintf "cancel_all_but %d" k
  | Periodic (p, s, k) ->
    Printf.sprintf "periodic %g%s x%d" p
      (match s with Some s -> Printf.sprintf " start %g" s | None -> "")
      k
  | Rearm (i, d) -> Printf.sprintf "rearm %d %g" i d
  | Rearm_at (i, t) -> Printf.sprintf "rearm_at %d %g" i t
  | Run d -> Printf.sprintf "run +%g" d
  | Post (d, n) -> Printf.sprintf "post %g %d" d n

(* What both sides expose to a script: the engine, or the model. *)
module type SIM = sig
  type t
  type handle

  val create : unit -> t
  val now : t -> float
  val timer : t -> (unit -> unit) -> handle
  val arm : handle -> after:float -> unit
  val arm_at : handle -> time:float -> unit
  val schedule : t -> after:float -> (unit -> unit) -> handle
  val schedule_at : t -> time:float -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val is_pending : handle -> bool

  type handler

  val handler : t -> (int -> unit) -> handler
  val post : t -> after:float -> handler -> int -> unit
  val run : ?until:float -> t -> unit
  val events_processed : t -> int
  val live_events : t -> int
end

module Model : SIM = struct
  type entry = { time : float; seq : int; fire : unit -> unit }

  type t = {
    mutable clock : float;
    mutable seq : int;
    mutable queue : entry list;  (* pending only, sorted by (time, seq) *)
    mutable processed : int;
  }

  (* A timer owns at most one queue entry. *)
  type handle = { m : t; action : unit -> unit; mutable queued : entry option }

  let create () = { clock = 0.0; seq = 0; queue = []; processed = 0 }
  let now m = m.clock

  let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let push m ~time fire =
    let e = { time = Float.max time m.clock; seq = m.seq; fire } in
    m.seq <- m.seq + 1;
    let rec insert = function
      | x :: rest when before x e -> x :: insert rest
      | rest -> e :: rest
    in
    m.queue <- insert m.queue;
    e

  let timer m action = { m; action; queued = None }

  let cancel h =
    match h.queued with
    | Some e ->
      h.queued <- None;
      h.m.queue <- List.filter (fun x -> x != e) h.m.queue
    | None -> ()

  let is_pending h = h.queued <> None

  let arm_at h ~time =
    cancel h;
    h.queued <-
      Some
        (push h.m ~time (fun () ->
             h.queued <- None;
             h.action ()))

  let arm h ~after = arm_at h ~time:(h.m.clock +. Float.max 0.0 after)

  let schedule_at m ~time f =
    let h = timer m f in
    arm_at h ~time;
    h

  let schedule m ~after f =
    let h = timer m f in
    arm h ~after;
    h

  (* A typed event is an uncancellable one-shot sharing the sequence. *)
  type handler = int -> unit

  let handler _ f = f

  let post m ~after h arg =
    ignore (push m ~time:(m.clock +. Float.max 0.0 after) (fun () -> h arg))

  let rec run ?until m =
    match m.queue with
    | e :: rest
      when match until with Some u -> e.time <= u | None -> true ->
      m.queue <- rest;
      m.clock <- Float.max m.clock e.time;
      m.processed <- m.processed + 1;
      e.fire ();
      run ?until m
    | _ -> Option.iter (fun u -> m.clock <- Float.max m.clock u) until

  let events_processed m = m.processed
  let live_events m = List.length m.queue
end

module Real : SIM with type t = Engine.t and type handle = Engine.timer = struct
  include Engine

  type handle = timer

  let post e ~after h arg =
    (Engine.post_delay e).(0) <- after;
    Engine.post e h arg

  let live_events e = Engine.pending_events e - Engine.cancelled_pending e
end

(* Run [script] on [S].  Returns the observation trace — every fired
   action as (handle index, time), then (clock, events processed, live
   events, which handles are pending) after each op — and calls [probe]
   at every action and op.  Every cancel and re-arm of a handle goes
   through [kill], which gets the handle and runs the operation. *)
let play (type t h) (module S : SIM with type t = t and type handle = h)
    ~(probe : t -> unit) ~(kill : t -> h -> (unit -> unit) -> unit) script =
  let sim = S.create () in
  let handles : (int, h) Hashtbl.t = Hashtbl.create 64 in
  let count = ref 0 in
  let trace = ref [] in
  let note x = trace := x :: !trace in
  let add mk =
    let id = !count in
    incr count;
    Hashtbl.replace handles id (mk id)
  in
  let nth i = Hashtbl.find handles (i mod !count) in
  let cancel i =
    if !count > 0 then
      let h = nth i in
      kill sim h (fun () -> S.cancel h)
  in
  let rearm i arm =
    if !count > 0 then
      let h = nth i in
      kill sim h (fun () -> arm h)
  in
  let rearmed = Hashtbl.create 16 in
  let rec action id handler () =
    note (`Fire (id, S.now sim));
    probe sim;
    match handler with
    | Leaf -> ()
    | Spawn d -> add (fun id -> S.schedule sim ~after:d (action id Leaf))
    | Cancel_other i -> cancel i
    | Rearm_other (i, d) ->
      if not (Hashtbl.mem rearmed id) then begin
        Hashtbl.replace rearmed id ();
        rearm i (S.arm ~after:d)
      end
  in
  let rec on_post n =
    note (`Post (n, S.now sim));
    probe sim;
    if n > 0 then
      if n land 1 = 0 then
        S.post sim ~after:(0.25 *. float_of_int (n mod 5)) (Lazy.force posted)
          (n - 1)
      else begin
        add (fun id ->
            S.schedule sim ~after:(0.25 *. float_of_int n) (action id Leaf));
        S.post sim ~after:0.0 (Lazy.force posted) (n - 1)
      end
  and posted = lazy (S.handler sim on_post) in
  let step = function
    | Sched (d, h) -> add (fun id -> S.schedule sim ~after:d (action id h))
    | Sched_at (t, h) ->
      add (fun id -> S.schedule_at sim ~time:t (action id h))
    | Batch (n, d) ->
      for i = 0 to n - 1 do
        add (fun id ->
            S.schedule sim ~after:(d +. (0.25 *. float_of_int (i mod 7)))
              (action id Leaf))
      done
    | Cancel i -> cancel i
    | Cancel_all_but k ->
      for i = 0 to !count - 1 do
        if i mod k <> 0 then cancel i
      done
    | Periodic (period, start, k) ->
      add (fun id ->
          let fired = ref 0 in
          let rec tm =
            lazy
              (S.timer sim (fun () ->
                   note (`Fire (id, S.now sim));
                   probe sim;
                   incr fired;
                   if !fired < k then S.arm (Lazy.force tm) ~after:period))
          in
          let tm = Lazy.force tm in
          S.arm tm ~after:(Option.value start ~default:period);
          tm)
    | Rearm (i, d) -> rearm i (S.arm ~after:d)
    | Rearm_at (i, t) -> rearm i (S.arm_at ~time:t)
    | Run d -> S.run ~until:(S.now sim +. d) sim
    | Post (d, n) -> S.post sim ~after:d (Lazy.force posted) n
  in
  let observe () =
    note
      (`After
        ( S.now sim,
          S.events_processed sim,
          S.live_events sim,
          List.init !count (fun i -> S.is_pending (Hashtbl.find handles i)) ))
  in
  List.iter
    (fun op ->
      step op;
      probe sim;
      observe ())
    script;
  S.run sim;
  observe ();
  List.rev !trace

let grid = QCheck2.Gen.map (fun k -> 0.25 *. float_of_int k)

let script_gen =
  let open QCheck2.Gen in
  let delay = grid (int_bound 8) in
  let handler =
    frequency
      [
        (5, pure Leaf);
        (2, map (fun d -> Spawn d) delay);
        (1, map (fun i -> Cancel_other i) (int_bound 1000));
        (1, map2 (fun i d -> Rearm_other (i, d)) (int_bound 1000) delay);
      ]
  in
  let op =
    frequency
      [
        (4, map2 (fun d h -> Sched (d, h)) delay handler);
        (2, map2 (fun t h -> Sched_at (t, h)) (grid (int_range (-8) 80)) handler);
        (1, map2 (fun n d -> Batch (n, d)) (int_range 1 40) delay);
        (3, map (fun i -> Cancel i) (int_bound 1000));
        (1, map (fun k -> Cancel_all_but k) (int_range 2 5));
        ( 1,
          map3
            (fun p s k -> Periodic (p, s, k))
            (grid (int_range 1 8)) (opt delay) (int_range 1 6) );
        (3, map2 (fun i d -> Rearm (i, d)) (int_bound 1000) delay);
        ( 1,
          map2 (fun i t -> Rearm_at (i, t)) (int_bound 1000)
            (grid (int_range (-8) 80)) );
        (3, map (fun d -> Run d) delay);
      ]
  in
  (* The far-future batch and the cancellation that follows it are
     always there: well over 64 timers and over half the queue die at
     once, so the engine's compaction runs in every script (at most 40
     ops of at most 2 s each cannot reach t = 100 first). *)
  let* n = int_range 150 220 in
  let* k = int_range 3 5 in
  let* pre = list_size (int_bound 20) op in
  let* mid = list_size (int_bound 10) op in
  let* post = list_size (int_bound 10) op in
  pure (pre @ [ Batch (n, 100.0) ] @ mid @ [ Cancel_all_but k ] @ post)

let check_against_model script =
  let expected =
    play (module Model) ~probe:ignore ~kill:(fun _ _ op -> op ()) script
  in
  let bounded = ref true in
  let compacted = ref false in
  let probe e =
    let c = Engine.cancelled_pending e in
    if c < 0 || c > Engine.pending_events e then bounded := false
  in
  (* A cancel or re-arm that kills a queued timer's slot adds one to
     [cancelled_pending] unless it triggered a compaction. *)
  let kill e h op =
    let queued = Engine.is_pending h in
    let before = Engine.cancelled_pending e in
    op ();
    if queued && Engine.cancelled_pending e < before then compacted := true
  in
  let actual = play (module Real) ~probe ~kill script in
  if not !bounded then QCheck2.Test.fail_report "cancelled_pending out of bounds";
  if not !compacted then QCheck2.Test.fail_report "compaction never ran";
  actual = expected

let show_script s = String.concat "; " (List.map show_op s)

let engine_matches_model =
  QCheck2.Test.make ~name:"engine matches sorted-list model" ~count:300
    ~print:show_script script_gen check_against_model

(* The same scripts with typed events posted in between: posts share the
   (time, seq) order with closure timers, and their handler posts and
   schedules in turn. *)
let posts_gen =
  let open QCheck2.Gen in
  let* script = script_gen in
  let* posts =
    list_size (int_range 1 20)
      (triple (int_bound (List.length script)) (grid (int_bound 8))
         (int_bound 6))
  in
  let at i =
    List.filter_map
      (fun (j, d, n) -> if i = j then Some (Post (d, n)) else None)
      posts
  in
  pure
    (List.concat (List.mapi (fun i op -> at i @ [ op ]) script)
    @ at (List.length script))

let engine_with_posts_matches_model =
  QCheck2.Test.make ~name:"engine with typed events matches the model" ~count:300
    ~print:show_script posts_gen check_against_model

(* Typed events are the per-packet, per-hop events: once the heap has
   grown, posting and firing one allocates nothing.  The delay goes
   through the engine's slot, so even a computed one is never boxed; a
   zero delay keeps the clock still, and an advancing clock costs its
   one box (2 words). *)
(* Zero, or a delay computed per post from its argument (inline: a
   closure's float result would be boxed). *)
let[@inline] delay ~computed arg =
  if computed then float_of_int (1 + (arg land 7)) *. 1e-4 else 0.0

let post_burst ~computed =
  let e = Engine.create () in
  let slot = Engine.post_delay e in
  let left = ref 0 in
  (* Time-advancing firings; [last] holds the clock's own box. *)
  let advances = ref 0 and last = ref (Engine.now e) in
  let rec h =
    lazy
      (Engine.handler e (fun arg ->
           if Engine.now e > !last then begin
             incr advances;
             last := Engine.now e
           end;
           if !left > 0 then begin
             decr left;
             slot.(0) <- delay ~computed arg;
             Engine.post e (Lazy.force h) arg
           end))
  in
  let h = Lazy.force h in
  let burst n () =
    left := n;
    for i = 1 to 64 do
      slot.(0) <- delay ~computed i;
      Engine.post e h i
    done;
    Engine.run e
  in
  (e, burst, advances)

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_post_allocates_nothing () =
  let e, burst, _ = post_burst ~computed:false in
  burst 1000 ();
  let idle = words ignore in
  let fired = Engine.events_processed e in
  let w = words (burst 10_000) -. idle in
  Alcotest.(check int) "events fired" (10_000 + 64)
    (Engine.events_processed e - fired);
  Alcotest.(check (float 0.0)) "words per typed event" 0.0 w;
  (* A delay computed per post, as a link's serialization time is: only
     the clock's box when time advances. *)
  let e, burst, advances = post_burst ~computed:true in
  burst 1000 ();
  let idle = words ignore in
  let fired = Engine.events_processed e in
  let advanced = !advances in
  let w = words (burst 10_000) -. idle in
  let advanced = !advances - advanced in
  Alcotest.(check int) "computed-delay events fired" (10_000 + 64)
    (Engine.events_processed e - fired);
  Alcotest.(check bool) "the clock advanced" true (advanced > 1000);
  Alcotest.(check (float 0.0)) "words: the clock's box per advance"
    (2.0 *. float_of_int advanced) w

(* A protocol timer (RTO, pacing, TR scan) is built once and re-armed
   for life: once the heap has grown, re-arming it, re-arming it again
   while it is queued (its old slot dies) and firing it allocate
   nothing. *)
let test_rearm_allocates_nothing () =
  let e = Engine.create () in
  let left = ref 0 in
  let rec tm =
    lazy
      (Engine.timer e (fun () ->
           if !left > 0 then begin
             decr left;
             Engine.arm (Lazy.force tm) ~after:0.0;
             Engine.arm_at (Lazy.force tm) ~time:0.0
           end))
  in
  let tm = Lazy.force tm in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let burst n () =
    left := n;
    Engine.arm tm ~after:0.0;
    Engine.run e
  in
  burst 1000 ();
  let idle = words ignore in
  let fired = Engine.events_processed e in
  let w = words (burst 10_000) -. idle in
  Alcotest.(check int) "timer fired" 10_001 (Engine.events_processed e - fired);
  Alcotest.(check int) "dead slots discarded" 0 (Engine.cancelled_pending e);
  Alcotest.(check (float 0.0)) "words per re-arm and fire" 0.0 w

let () =
  Alcotest.run "leotp_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
          Alcotest.test_case "nested scheduling" `Quick test_schedule_from_handler;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "negative delay clamp" `Quick
            test_clock_monotone_negative_after;
          Alcotest.test_case "re-armed timer" `Quick test_rearmed_timer;
          Alcotest.test_case "re-armed timer with start" `Quick
            test_rearmed_timer_start;
          Alcotest.test_case "cancel compaction" `Quick test_cancel_compaction;
          Alcotest.test_case "compaction keeps order" `Quick
            test_cancel_compaction_order;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "non-finite times rejected" `Quick
            test_non_finite_times;
          QCheck_alcotest.to_alcotest engine_matches_model;
          QCheck_alcotest.to_alcotest engine_with_posts_matches_model;
          Alcotest.test_case "typed events allocate nothing" `Quick
            test_post_allocates_nothing;
          Alcotest.test_case "re-armed timers allocate nothing" `Quick
            test_rearm_allocates_nothing;
        ] );
    ]
