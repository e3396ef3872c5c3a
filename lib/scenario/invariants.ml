module Trace = Leotp_net.Trace

type report = { invariant : string; ok : bool; detail : string }

exception Violation of string

(* Set once at startup by the golden-figure self-check harness; atomic
   because worker domains read it mid-run (see Common.observed).  The
   allow covers determinism, not safety: flipping it mid-sweep would
   change which runs are checked, so harnesses set it before any jobs
   start. *)
let self_check = Atomic.make false [@@leotp.allow "no-global-mutable-state"]

(* Per-link event-stream counters plus the link's own final snapshot. *)
type link_acc = {
  mutable offered : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dups : int;
  mutable final :
    (int * int * int * int * int * int) option;
      (* offered, delivered, dropped, dups, queued, in_flight *)
}

(* Exact replay of one PIT's event stream: the open-entry table must
   always agree with the pending count the PIT itself advertised. *)
type pit_acc = {
  open_entries : (int * int * int, float) Hashtbl.t;  (** key -> entry birth *)
  mutable expiry : float;
  mutable first_error : string option;
}

type flow_acc = {
  mutable next : int;  (** expected position of the next delivery *)
  mutable completed : int option;
  mutable first_error : string option;
}

type t = {
  links : (string, link_acc) Hashtbl.t;
  pits : (string, pit_acc) Hashtbl.t;
  flows : (int * int, flow_acc) Hashtbl.t;
  mutable pit_satisfy_stale : int;  (** satisfies past expiry claiming fresh *)
  mutable cache_peak_over : (string * int * int) option;
  mutable cache_events : int;
  mutable rto_events : int;
  mutable rto_violation : (string * float * float) option;
  mutable events : int;
}

let create () =
  {
    links = Hashtbl.create 16;
    pits = Hashtbl.create 8;
    flows = Hashtbl.create 8;
    pit_satisfy_stale = 0;
    cache_peak_over = None;
    cache_events = 0;
    rto_events = 0;
    rto_violation = None;
    events = 0;
  }

let link_acc t name =
  match Hashtbl.find_opt t.links name with
  | Some a -> a
  | None ->
    let a = { offered = 0; delivered = 0; dropped = 0; dups = 0; final = None } in
    Hashtbl.replace t.links name a;
    a

let pit_acc t name =
  match Hashtbl.find_opt t.pits name with
  | Some a -> a
  | None ->
    let a =
      { open_entries = Hashtbl.create 64; expiry = 0.0; first_error = None }
    in
    Hashtbl.replace t.pits name a;
    a

let flow_acc t key =
  match Hashtbl.find_opt t.flows key with
  | Some a -> a
  | None ->
    let a = { next = 0; completed = None; first_error = None } in
    Hashtbl.replace t.flows key a;
    a

let pit_error (a : pit_acc) msg =
  if a.first_error = None then a.first_error <- Some msg

let check_pending a ~node ~pending =
  if Hashtbl.length a.open_entries <> pending then
    pit_error a
      (Printf.sprintf "%s: advertised %d pending, replay has %d" node pending
         (Hashtbl.length a.open_entries))

(* Slack on time comparisons, seconds. *)
let eps = 1e-9

let sink t (r : Trace.record) =
  t.events <- t.events + 1;
  match r.Trace.event with
  | Trace.Link_enq { link; _ } ->
    let a = link_acc t link in
    a.offered <- a.offered + 1
  | Trace.Link_drop { link; _ } ->
    let a = link_acc t link in
    a.dropped <- a.dropped + 1
  | Trace.Link_deliver { link; _ } ->
    let a = link_acc t link in
    a.delivered <- a.delivered + 1
  | Trace.Link_dup { link; _ } ->
    let a = link_acc t link in
    a.dups <- a.dups + 1
  | Trace.Link_final { link; offered; delivered; dropped; dups; queued; in_flight }
    ->
    let a = link_acc t link in
    a.final <- Some (offered, delivered, dropped, dups, queued, in_flight)
  | Trace.Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
    let a = pit_acc t node in
    a.expiry <- expiry;
    let key = (flow, lo, hi) in
    if forwarded then Hashtbl.replace a.open_entries key r.Trace.time
    else if not (Hashtbl.mem a.open_entries key) then
      pit_error a
        (Printf.sprintf "%s: duplicate-blocked register for absent entry" node);
    check_pending a ~node ~pending
  | Trace.Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
    let a = pit_acc t node in
    let key = (flow, lo, hi) in
    if not (Hashtbl.mem a.open_entries key) then
      pit_error a (Printf.sprintf "%s: satisfy for unregistered entry" node)
    else Hashtbl.remove a.open_entries key;
    if fresh && age > a.expiry +. eps then
      t.pit_satisfy_stale <- t.pit_satisfy_stale + 1;
    check_pending a ~node ~pending
  | Trace.Pit_expire { node; flow; lo; hi; pending } ->
    let a = pit_acc t node in
    let key = (flow, lo, hi) in
    if not (Hashtbl.mem a.open_entries key) then
      pit_error a (Printf.sprintf "%s: expire for unregistered entry" node)
    else Hashtbl.remove a.open_entries key;
    check_pending a ~node ~pending
  | Trace.Cache_occupancy { node; used; capacity } ->
    t.cache_events <- t.cache_events + 1;
    if used > capacity && t.cache_peak_over = None then
      t.cache_peak_over <- Some (node, used, capacity)
  | Trace.Deliver { node; flow; pos; len } ->
    let a = flow_acc t (node, flow) in
    if pos <> a.next && a.first_error = None then
      a.first_error <-
        Some
          (Printf.sprintf "node %d flow %d: delivered pos %d, expected %d" node
             flow pos a.next);
    a.next <- max a.next (pos + len)
  | Trace.Complete { node; flow; bytes } ->
    let a = flow_acc t (node, flow) in
    if a.completed <> None && a.first_error = None then
      a.first_error <-
        Some (Printf.sprintf "node %d flow %d: completed twice" node flow);
    if bytes <> a.next && a.first_error = None then
      a.first_error <-
        Some
          (Printf.sprintf
             "node %d flow %d: completed at %d bytes, delivered %d" node flow
             bytes a.next);
    a.completed <- Some bytes
  | Trace.Rto_fire { who; elapsed; floor } ->
    t.rto_events <- t.rto_events + 1;
    if elapsed +. eps < floor && t.rto_violation = None then
      t.rto_violation <- Some (who, elapsed, floor)
  (* Ack_processed / Seg_state feed the differential oracle
     (Leotp_check.Oracle), a separate sink. *)
  | Trace.Ack_processed _ | Trace.Seg_state _ | Trace.Fault _ | Trace.Note _ ->
    ()

let sorted_hashtbl_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let finalize ~now t =
  let pit_report =
    let errors = ref [] in
    let entries = ref 0 in
    List.iter
      (fun (name, (a : pit_acc)) ->
        (match a.first_error with Some e -> errors := e :: !errors | None -> ());
        List.iter
          (fun (_, born) ->
            incr entries;
            if now -. born > a.expiry +. eps then
              errors :=
                Printf.sprintf "%s: entry leaked past expiry (age %.3f > %.3f)"
                  name (now -. born) a.expiry
                :: !errors)
          (sorted_hashtbl_bindings a.open_entries))
      (sorted_hashtbl_bindings t.pits);
    if t.pit_satisfy_stale > 0 then
      errors :=
        Printf.sprintf "%d satisfies claimed fresh past expiry"
          t.pit_satisfy_stale
        :: !errors;
    match !errors with
    | [] ->
      {
        invariant = "pit-lifetime";
        ok = true;
        detail =
          Printf.sprintf "%d tables consistent, %d entries open and fresh"
            (Hashtbl.length t.pits) !entries;
      }
    | e :: _ -> { invariant = "pit-lifetime"; ok = false; detail = e }
  in
  let cache_report =
    match t.cache_peak_over with
    | None ->
      {
        invariant = "cache-capacity";
        ok = true;
        detail = Printf.sprintf "%d occupancy samples within capacity" t.cache_events;
      }
    | Some (node, used, cap) ->
      {
        invariant = "cache-capacity";
        ok = false;
        detail = Printf.sprintf "%s: used %d > capacity %d" node used cap;
      }
  in
  let delivery_report =
    let errors =
      List.filter_map
        (fun (_, a) -> a.first_error)
        (sorted_hashtbl_bindings t.flows)
    in
    match errors with
    | [] ->
      {
        invariant = "delivery-order";
        ok = true;
        detail =
          Printf.sprintf "%d (node, flow) streams in-order and exactly-once"
            (Hashtbl.length t.flows);
      }
    | e :: _ -> { invariant = "delivery-order"; ok = false; detail = e }
  in
  let link_report =
    let errors = ref [] in
    List.iter
      (fun (name, a) ->
        match a.final with
        | None ->
          errors := Printf.sprintf "%s: no final accounting event" name :: !errors
        | Some (offered, delivered, dropped, dups, queued, in_flight) ->
          if
            (offered, delivered, dropped, dups)
            <> (a.offered, a.delivered, a.dropped, a.dups)
          then
            errors :=
              Printf.sprintf
                "%s: stream counts (%d,%d,%d,%d) disagree with link counters (%d,%d,%d,%d)"
                name a.offered a.delivered a.dropped a.dups offered delivered
                dropped dups
              :: !errors
          else if offered + dups <> delivered + dropped + queued + in_flight then
            errors :=
              Printf.sprintf
                "%s: %d offered + %d dup <> %d delivered + %d dropped + %d queued + %d in flight"
                name offered dups delivered dropped queued in_flight
              :: !errors)
      (sorted_hashtbl_bindings t.links);
    match !errors with
    | [] ->
      {
        invariant = "link-conservation";
        ok = true;
        detail = Printf.sprintf "%d links balanced" (Hashtbl.length t.links);
      }
    | e :: _ -> { invariant = "link-conservation"; ok = false; detail = e }
  in
  let rto_report =
    match t.rto_violation with
    | None ->
      {
        invariant = "rto-floor";
        ok = true;
        detail = Printf.sprintf "%d timeouts at or above the floor" t.rto_events;
      }
    | Some (who, elapsed, floor) ->
      {
        invariant = "rto-floor";
        ok = false;
        detail =
          Printf.sprintf "%s fired after %.6f s, floor %.6f s" who elapsed floor;
      }
  in
  [ pit_report; cache_report; delivery_report; link_report; rto_report ]

let all_ok reports = List.for_all (fun r -> r.ok) reports

let to_string reports =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "  %-17s %s  %s" r.invariant
           (if r.ok then "OK" else "FAIL")
           r.detail)
       reports)
