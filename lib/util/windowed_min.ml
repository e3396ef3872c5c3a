(* The deque is a short list (O(samples in window)) rebuilt per sample —
   endpoint RTT filtering, not the relay forwarding path; the list cells
   are the design. *)
[@@@leotp.allow "hot-path-may-alloc"]

type kind = Min | Max

type t = {
  kind : kind;
  mutable window : float;
  (* Monotonic wedge, front = best (oldest surviving), back = newest.
     Values are increasing for Min / decreasing for Max, so the extremum
     over the window is always the front element. *)
  mutable dq : (float * float) list;
}

let create kind window = { kind; window; dq = [] }
let create_min ~window = create Min window
let create_max ~window = create Max window
let set_window t w = t.window <- w

let dominates kind new_v old_v =
  match kind with Min -> new_v <= old_v | Max -> new_v >= old_v

let expire t now =
  let cutoff = now -. t.window in
  let rec drop = function
    | (ts, _) :: rest when ts < cutoff -> drop rest
    | l -> l
  in
  t.dq <- drop t.dq

let add t ~now v =
  let rec strip = function
    | (_, ov) :: rest when dominates t.kind v ov -> strip rest
    | l -> l
  in
  t.dq <- List.rev ((now, v) :: strip (List.rev t.dq));
  expire t now

let get t ~now =
  expire t now;
  match t.dq with [] -> None | (_, v) :: _ -> Some v

let get_or t ~now ~default =
  match get t ~now with Some v -> v | None -> default
