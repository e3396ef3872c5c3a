(* Executable reference model of a reliable byte-stream sender.

   Deliberately naive: a go-back-N scoreboard kept as a sorted list of
   outstanding segments with explicit per-segment SACK/loss flags, every
   operation an O(n) scan.  No pacing, no FACK heuristics, no windowing
   — the model does not decide *when* to send or mark segments lost; it
   replays the real sender's own transitions (from Seg_state trace
   events) and independently applies ACK semantics, so any bookkeeping
   shortcut in the optimized sender shows up as a divergence at the next
   Ack_processed event. *)

type seg = { seq : int; len : int; mutable sacked : bool; mutable lost : bool }

type t = {
  mutable segs : seg list;  (** outstanding, sorted by [seq], disjoint *)
  mutable snd_una : int;
  mutable inflight : int;
  mutable lost_pending : int;
}

type claim = { snd_una : int; inflight : int; lost_pending : int }

let create () = { segs = []; snd_una = 0; inflight = 0; lost_pending = 0 }

let rec insert seg = function
  | [] -> [ seg ]
  | s :: rest when seg.seq < s.seq -> seg :: s :: rest
  | s :: rest -> s :: insert seg rest

let overlaps a b = a.seq < b.seq + b.len && b.seq < a.seq + a.len

(* Transition replay: the sender claims it (re)transmitted or lost-marked
   a segment; mirror the bookkeeping, reporting impossible transitions. *)

let on_sent (t : t) ~seq ~len =
  if List.exists (fun s -> overlaps s { seq; len; sacked = false; lost = false })
       t.segs
  then [ Printf.sprintf "sent seq=%d len=%d overlaps an outstanding segment" seq len ]
  else begin
    t.segs <- insert { seq; len; sacked = false; lost = false } t.segs;
    t.inflight <- t.inflight + len;
    []
  end

let on_retx (t : t) ~seq ~len =
  match List.find_opt (fun s -> s.seq = seq && s.len = len) t.segs with
  | None ->
    [ Printf.sprintf "retransmit of unknown segment seq=%d len=%d" seq len ]
  | Some s ->
    if s.lost then begin
      s.lost <- false;
      t.lost_pending <- t.lost_pending - 1
    end;
    t.inflight <- t.inflight + len;
    []

let on_lost (t : t) ~seq ~len =
  (* A loss mark for a proper suffix of a known segment is legal: a
     partial cumulative ack splits a straddled segment inside the
     sender's handle_ack, and the tail may be loss-marked before the
     Ack_processed event (which carries the split to this model) is
     emitted.  Mirror the split here, exactly as the ack will. *)
  let target =
    match List.find_opt (fun s -> s.seq = seq && s.len = len) t.segs with
    | Some s -> Some s
    | None -> (
      match
        List.find_opt
          (fun s -> s.seq < seq && s.seq + s.len = seq + len && not s.sacked)
          t.segs
      with
      | Some s when not s.lost ->
        let head = { s with len = seq - s.seq } in
        let tail = { seq; len; sacked = false; lost = false } in
        t.segs <-
          List.concat_map
            (fun s' -> if s' == s then [ head; tail ] else [ s' ])
            t.segs;
        Some tail
      | _ -> None)
  in
  match target with
  | None -> [ Printf.sprintf "loss mark for unknown segment seq=%d len=%d" seq len ]
  | Some s ->
    if s.sacked then
      [ Printf.sprintf "loss mark for SACKed segment seq=%d len=%d" seq len ]
    else if s.lost then
      [ Printf.sprintf "duplicate loss mark for segment seq=%d len=%d" seq len ]
    else begin
      s.lost <- true;
      t.lost_pending <- t.lost_pending + 1;
      t.inflight <- t.inflight - len;
      []
    end

(* ACK semantics, ground truth.  Returns the bytes newly acknowledged
   (cumulative head + fresh SACKs), matching what the sender feeds its
   congestion controller. *)
let on_ack (t : t) ~cum_ack ~sacks =
  let acked = ref 0 in
  if cum_ack > t.snd_una then begin
    t.segs <-
      List.filter_map
        (fun s ->
          if s.seq + s.len <= cum_ack then begin
            (* Fully acknowledged. *)
            if not s.sacked then acked := !acked + s.len;
            if s.lost then t.lost_pending <- t.lost_pending - 1
            else if not s.sacked then t.inflight <- t.inflight - s.len;
            None
          end
          else if s.seq < cum_ack then begin
            (* Straddles cum_ack: only the head is acknowledged. *)
            let head = cum_ack - s.seq in
            if not s.sacked then begin
              acked := !acked + head;
              if not s.lost then t.inflight <- t.inflight - head
            end;
            Some { s with seq = cum_ack; len = s.len - head }
          end
          else Some s)
        t.segs;
    t.snd_una <- cum_ack
  end;
  List.iter
    (fun (lo, hi) ->
      List.iter
        (fun s ->
          if s.seq >= lo && s.seq + s.len <= hi && not s.sacked then begin
            s.sacked <- true;
            acked := !acked + s.len;
            if s.lost then t.lost_pending <- t.lost_pending - 1
            else t.inflight <- t.inflight - s.len;
            s.lost <- false
          end)
        t.segs)
    sacks;
  !acked

let check (t : t) (c : claim) =
  let err = ref [] in
  let mismatch what model claimed =
    err :=
      Printf.sprintf "%s: sender claims %d, model has %d" what claimed model
      :: !err
  in
  if c.snd_una <> t.snd_una then mismatch "snd_una" t.snd_una c.snd_una;
  if c.inflight <> t.inflight then mismatch "inflight" t.inflight c.inflight;
  if c.lost_pending <> t.lost_pending then
    mismatch "lost_pending" t.lost_pending c.lost_pending;
  List.rev !err

let snd_una (t : t) = t.snd_una
let inflight (t : t) = t.inflight
let outstanding t = List.length t.segs
