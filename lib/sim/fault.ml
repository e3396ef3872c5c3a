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

let parse_target s =
  let num prefix =
    let n = String.length prefix in
    int_of_string_opt (String.sub s n (String.length s - n))
  in
  if String.length s > 3 && String.sub s 0 3 = "hop" then
    Option.map (fun i -> Hop i) (num "hop")
  else if String.length s > 3 && String.sub s 0 3 = "mid" then
    Option.map (fun i -> Mid i) (num "mid")
  else None

(* Values the simulator cannot mean — a NaN or infinite time, a
   probability outside [0, 1], a non-positive bandwidth, a negative
   jitter — are refused, naming the event. *)
let check_range item ev =
  let bad why = Error (Printf.sprintf "bad fault event %S: %s" item why) in
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
    | _ -> Ok ev

let parse_fields item =
  let fail () = Error (Printf.sprintf "bad fault event %S" item) in
  match String.index_opt item '@' with
  | None -> fail ()
  | Some at -> (
    let time = float_of_string_opt (String.sub item 0 at) in
    let rest = String.sub item (at + 1) (String.length item - at - 1) in
    let verb, operand =
      match String.index_opt rest ':' with
      | None -> (rest, "")
      | Some c ->
        (String.sub rest 0 c, String.sub rest (c + 1) (String.length rest - c - 1))
    in
    let tgt, args =
      match String.index_opt operand '=' with
      | None -> (operand, [])
      | Some e ->
        ( String.sub operand 0 e,
          String.split_on_char ','
            (String.sub operand (e + 1) (String.length operand - e - 1)) )
    in
    match (time, parse_target tgt, args) with
    | Some time, Some tgt, [] when verb = "down" ->
      Ok { time; action = Link_down tgt }
    | Some time, Some tgt, [] when verb = "up" -> Ok { time; action = Link_up tgt }
    | Some time, Some tgt, [] when verb = "crash" -> Ok { time; action = Crash tgt }
    | Some time, Some tgt, [] when verb = "restart" ->
      Ok { time; action = Restart tgt }
    | Some time, Some tgt, [ a ] -> (
      match (verb, float_of_string_opt a) with
      | "plr", Some p -> Ok { time; action = Set_plr (tgt, p) }
      | "bw", Some b -> Ok { time; action = Set_bw_mbps (tgt, b) }
      | "dup", Some p -> Ok { time; action = Set_dup (tgt, p) }
      | _ -> fail ())
    | Some time, Some tgt, [ a; b ] when verb = "reorder" -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some p, Some j -> Ok { time; action = Set_reorder (tgt, p, j) }
      | _ -> fail ())
    | _ -> fail ())

let parse_event item = Result.bind (parse_fields item) (check_range item)

let of_string s =
  let items =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc item ->
      match (acc, parse_event item) with
      | Error _, _ -> acc
      | Ok evs, Ok ev -> Ok (ev :: evs)
      | Ok _, Error e -> Error e)
    (Ok []) items
  |> Result.map List.rev

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
