(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer's public API:
   name, start, end (host seconds) and the span that was open when it
   started.  Spans are kept in a list while the run goes and written
   once at the end, so recording costs two clock reads and one small
   allocation per call.  With recording off, [span] is a plain call. *)

type t = { id : int; name : string; parent : int; start : float; stop : float }

let enabled = ref false
let recorded : t list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  open_stack := [];
  next_id := 0

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    open_stack := id :: !open_stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        open_stack := List.tl !open_stack;
        recorded := { id; name; parent; start; stop } :: !recorded)
      f
  end

let all () = List.rev !recorded

(* Self time per span name: each span's duration minus the part its
   direct children cover, summed over every span of that name, in
   first-seen order. *)
let self_times () =
  let spans = all () in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent (get covered s.parent +. s.stop -. s.start))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      if not (Hashtbl.mem totals s.name) then order := s.name :: !order;
      Hashtbl.replace totals s.name
        (get totals s.name +. (s.stop -. s.start) -. get covered s.id))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let to_json () =
  let spans = all () in
  let t0 = match spans with s :: _ -> s.start | [] -> 0.0 in
  let one s =
    Printf.sprintf
      "  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.9f, \
       \"end_s\": %.9f}"
      s.id s.name s.parent (s.start -. t0) (s.stop -. t0)
  in
  Printf.sprintf "{\"spans\": [\n%s\n]}\n"
    (String.concat ",\n" (List.map one spans))
