type target = Hop of int | Mid of int

type action =
  | Link_down of target
  | Link_up of target
  | Set_plr of target * float
  | Set_bw_mbps of target * float
  | Set_dup of target * float
  | Set_reorder of target * float * float
  | Crash of target
  | Restart of target

type event = { time : float; action : action }
type schedule = event list

let target_to_string = function
  | Hop i -> Printf.sprintf "hop%d" i
  | Mid i -> Printf.sprintf "mid%d" i

let fl x = Printf.sprintf "%.17g" x

let action_to_string = function
  | Link_down t -> "down:" ^ target_to_string t
  | Link_up t -> "up:" ^ target_to_string t
  | Set_plr (t, p) -> Printf.sprintf "plr:%s=%s" (target_to_string t) (fl p)
  | Set_bw_mbps (t, b) -> Printf.sprintf "bw:%s=%s" (target_to_string t) (fl b)
  | Set_dup (t, p) -> Printf.sprintf "dup:%s=%s" (target_to_string t) (fl p)
  | Set_reorder (t, p, j) ->
    Printf.sprintf "reorder:%s=%s,%s" (target_to_string t) (fl p) (fl j)
  | Crash t -> "crash:" ^ target_to_string t
  | Restart t -> "restart:" ^ target_to_string t

let event_to_string ev = Printf.sprintf "%s@%s" (fl ev.time) (action_to_string ev.action)
let to_string sched = String.concat ";" (List.map event_to_string sched)

module C = Leotp_util.Cursor

(* A value the simulator cannot mean is refused, naming the event by
   the text it was read from. *)
let check_range cur ~from ev =
  let bad why =
    raise (C.Bad (Printf.sprintf "bad fault event %S: %s" (C.since cur from) why))
  in
  let probability p = p >= 0.0 && p <= 1.0 in
  if not (Float.is_finite ev.time && ev.time >= 0.0) then
    bad "time must be finite and >= 0"
  else
    match ev.action with
    | Set_plr (_, p) | Set_dup (_, p) | Set_reorder (_, p, _)
      when not (probability p) ->
      bad "probability must be in [0, 1]"
    | Set_bw_mbps (_, b) when not (Float.is_finite b && b > 0.0) ->
      bad "bandwidth must be finite and > 0"
    | Set_reorder (_, _, j) when not (Float.is_finite j && j >= 0.0) ->
      bad "jitter must be finite and >= 0"
    | _ -> ()

let read_target cur =
  let at = C.column cur in
  match C.word cur ~what:"target" with
  | "hop" -> Hop (C.natural cur ~what:"hop")
  | "mid" -> Mid (C.natural cur ~what:"mid")
  | w -> C.fail_at cur at "unknown fault target %S" w

(* [<time>@<verb>:<target>[=<a>[,<b>]]], as [event_to_string] prints
   it. *)
let read_event cur =
  let start = C.column cur in
  let time = C.number cur ~what:"time" in
  C.expect cur "@";
  let verb_at = C.column cur in
  let verb = C.word cur ~what:"verb" in
  let arg f tgt =
    C.expect cur "=";
    f tgt (C.number cur ~what:verb)
  in
  let action =
    match verb with
    | "down" -> fun tgt -> Link_down tgt
    | "up" -> fun tgt -> Link_up tgt
    | "crash" -> fun tgt -> Crash tgt
    | "restart" -> fun tgt -> Restart tgt
    | "plr" -> arg (fun tgt p -> Set_plr (tgt, p))
    | "bw" -> arg (fun tgt b -> Set_bw_mbps (tgt, b))
    | "dup" -> arg (fun tgt p -> Set_dup (tgt, p))
    | "reorder" ->
      arg (fun tgt p ->
          C.expect cur ",";
          Set_reorder (tgt, p, C.number cur ~what:"jitter"))
    | v -> C.fail_at cur verb_at "unknown fault verb %S" v
  in
  C.expect cur ":";
  let ev = { time; action = action (read_target cur) } in
  check_range cur ~from:start ev;
  ev

let read cur =
  if C.at_end cur then []
  else
    let sched = C.sep_by cur ";" read_event in
    C.eol cur;
    sched

let of_string s = C.protect (fun () -> read (C.create s))

type spec = Schedule of schedule | Random of { seed : int; n : int }

let spec_to_string = function
  | Schedule s -> to_string s
  | Random { seed; n } -> Printf.sprintf "random:%d:%d" seed n

let spec_of_string s =
  C.protect (fun () ->
      let cur = C.create s in
      if not (C.looking_at cur "random:") then Schedule (read cur)
      else begin
        C.expect cur "random:";
        let seed = C.int_field cur ~what:"seed" in
        C.expect cur ":";
        let n = C.natural cur ~what:"n" in
        if n < 1 then C.fail cur "random:SEED:N needs N >= 1";
        C.eol cur;
        Random { seed; n }
      end)

(* Sort is stable and ties additionally break on the serialized action so
   the emitted order never depends on generation order. *)
let sort sched =
  List.stable_sort
    (fun a b ->
      match compare a.time b.time with
      | 0 -> compare (action_to_string a.action) (action_to_string b.action)
      | c -> c)
    sched

(* Bandwidth dips restore to 20 Mbps. *)
let bw_mbps = 20.0

let random ~rng ~duration ?(hops = 4) ~n () =
  let module Rng = Leotp_util.Rng in
  let t0 = 0.05 *. duration and t1 = 0.7 *. duration in
  let evs = ref [] in
  let count = ref 0 in
  while !count < n do
    let time = t0 +. Rng.float rng (t1 -. t0) in
    let dt = 0.05 +. Rng.float rng 1.5 in
    let h = Hop (Rng.int rng (max 1 hops)) in
    let pair a b =
      evs := { time = time +. dt; action = b } :: { time; action = a } :: !evs;
      count := !count + 2
    in
    match Rng.int rng 6 with
    | 0 -> pair (Link_down h) (Link_up h)
    | 1 -> pair (Set_plr (h, 0.01 +. Rng.float rng 0.2)) (Set_plr (h, 0.0))
    | 2 ->
      pair
        (Set_bw_mbps (h, bw_mbps *. (0.1 +. Rng.float rng 0.4)))
        (Set_bw_mbps (h, bw_mbps))
    | 3 -> pair (Set_dup (h, 0.02 +. Rng.float rng 0.2)) (Set_dup (h, 0.0))
    | 4 ->
      pair
        (Set_reorder (h, 0.05 +. Rng.float rng 0.3, 0.001 +. Rng.float rng 0.01))
        (Set_reorder (h, 0.0, 0.0))
    | _ ->
      (* One midnode target, but the draw stays: every seeded schedule
         depends on the rng sequence. *)
      let m = Mid (Rng.int rng 1) in
      pair (Crash m) (Restart m)
  done;
  sort !evs

let install engine ~apply sched =
  List.iter
    (fun ev ->
      ignore (Engine.schedule_at engine ~time:ev.time (fun () -> apply ev)))
    sched
