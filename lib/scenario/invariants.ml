module Trace = Leotp_net.Trace
module Names = Hashtbl.Make (String)
module Ints = Hashtbl.Make (Int)

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

(* The PIT replay's open entries: an open-addressing table from
   (flow, lo, hi) to the entry's birth, linear probing at a load of at
   most 1/2, doubling growth, backward-shift removal.  It is written
   apart from [Leotp_util.Range_table], which the PIT itself runs on,
   so that a bug there cannot hide from the check. *)
module Births = struct
  type t = {
    mutable used : Bytes.t;  (** ['\001'] at a slot that holds an entry *)
    mutable keys : int array;  (** slot [s]'s flow, lo, hi at [3s .. 3s+2] *)
    mutable births : float array;
    mutable length : int;
  }

  let make slots =
    {
      used = Bytes.make slots '\000';
      keys = Array.make (3 * slots) 0;
      births = Array.make slots 0.0;
      length = 0;
    }

  let create () = make 8
  let length t = t.length
  let mask t = Bytes.length t.used - 1
  let used t s = Bytes.get t.used s <> '\000'
  let same t s ~flow ~lo ~hi =
    t.keys.(3 * s) = flow && t.keys.((3 * s) + 1) = lo && t.keys.((3 * s) + 2) = hi

  let home t ~flow ~lo ~hi =
    let m = 0x9e3779b97f4a7c1 in
    let h = ((((flow * m) lxor lo) * m) lxor hi) * m in
    (h lxor (h lsr 29)) land mask t

  let rec probe t ~flow ~lo ~hi s =
    if not (used t s) then -1
    else if same t s ~flow ~lo ~hi then s
    else probe t ~flow ~lo ~hi ((s + 1) land mask t)

  (* The slot holding the key, or -1. *)
  let find t ~flow ~lo ~hi = probe t ~flow ~lo ~hi (home t ~flow ~lo ~hi)

  let rec free t s = if used t s then free t ((s + 1) land mask t) else s

  let put t ~flow ~lo ~hi birth =
    let s = free t (home t ~flow ~lo ~hi) in
    Bytes.set t.used s '\001';
    t.keys.(3 * s) <- flow;
    t.keys.((3 * s) + 1) <- lo;
    t.keys.((3 * s) + 2) <- hi;
    t.births.(s) <- birth;
    t.length <- t.length + 1;
    s

  let grow t =
    let bigger = make (2 * Bytes.length t.used) in
    for s = 0 to Bytes.length t.used - 1 do
      if used t s then
        ignore
          (put bigger ~flow:t.keys.(3 * s) ~lo:t.keys.((3 * s) + 1)
             ~hi:t.keys.((3 * s) + 2) t.births.(s))
    done;
    t.used <- bigger.used;
    t.keys <- bigger.keys;
    t.births <- bigger.births

  (* The key's slot, added (with birth 0.0) if absent; the caller
     writes the birth into [births] at that slot, so no float crosses a
     call boxed.  Valid until the next [claim] or [remove]. *)
  let claim t ~flow ~lo ~hi =
    let s = find t ~flow ~lo ~hi in
    if s >= 0 then s
    else begin
      if 2 * (t.length + 1) > Bytes.length t.used then grow t;
      put t ~flow ~lo ~hi 0.0
    end

  (* Empty slot [hole], then pull back each later entry of its probe
     run whose home does not lie cyclically in (hole, j]. *)
  let rec shift t hole j =
    if not (used t j) then Bytes.set t.used hole '\000'
    else begin
      let m = mask t in
      let h =
        home t ~flow:t.keys.(3 * j) ~lo:t.keys.((3 * j) + 1)
          ~hi:t.keys.((3 * j) + 2)
      in
      if (j - h) land m >= (j - hole) land m then begin
        Array.blit t.keys (3 * j) t.keys (3 * hole) 3;
        t.births.(hole) <- t.births.(j);
        shift t j ((j + 1) land m)
      end
      else shift t hole ((j + 1) land m)
    end

  let remove t s =
    shift t s ((s + 1) land mask t);
    t.length <- t.length - 1

  (* Open entries in key order, with their births. *)
  let entries t =
    let acc = ref [] in
    for s = Bytes.length t.used - 1 downto 0 do
      if used t s then
        acc :=
          ( (t.keys.(3 * s), t.keys.((3 * s) + 1), t.keys.((3 * s) + 2)),
            t.births.(s) )
          :: !acc
    done;
    List.sort (fun (a, _) (b, _) -> compare a b) !acc
end

(* Exact replay of one PIT's event stream: the open-entry table must
   always agree with the pending count the PIT itself advertised. *)
type pit_acc = {
  open_entries : Births.t;
  mutable expiry : float;
  mutable first_error : string option;
}

(* One receiving node's stream of one flow. *)
type stream = {
  node : int;
  flow : int;
  mutable next : int;  (** expected position of the next delivery *)
  mutable completed : bool;
  mutable first_error : string option;
}

type state = {
  slots : Trace.slots;
  links : link_acc Names.t;
  pits : pit_acc Names.t;
  streams : stream list Ints.t;  (** by flow: its receiving nodes' streams *)
  mutable pit_satisfy_stale : int;  (** satisfies past expiry claiming fresh *)
  mutable cache_peak_over : (string * int * int) option;
  mutable cache_events : int;
  mutable rto_events : int;
  mutable rto_violation : (string * float * float) option;
}

type t = { state : state; fold : Trace.fold }

let link_acc s name =
  match Names.find s.links name with
  | a -> a
  | exception Not_found ->
    let a = { offered = 0; delivered = 0; dropped = 0; dups = 0; final = None } in
    Names.replace s.links name a;
    a

let pit_acc s name =
  match Names.find s.pits name with
  | a -> a
  | exception Not_found ->
    let a =
      { open_entries = Births.create (); expiry = 0.0; first_error = None }
    in
    Names.replace s.pits name a;
    a

let rec on_node node = function
  | [] -> raise_notrace Not_found
  | (st : stream) :: rest -> if st.node = node then st else on_node node rest

let stream s ~node ~flow =
  let of_flow =
    match Ints.find s.streams flow with l -> l | exception Not_found -> []
  in
  match on_node node of_flow with
  | st -> st
  | exception Not_found ->
    let st = { node; flow; next = 0; completed = false; first_error = None } in
    Ints.replace s.streams flow (st :: of_flow);
    st

(* A table keeps only its first error, and callers test [first_error]
   first, so later ones are not even formatted. *)
let pit_error (a : pit_acc) fmt =
  Printf.ksprintf (fun msg -> a.first_error <- Some msg) fmt

let check_pending (a : pit_acc) ~node ~pending =
  let n = Births.length a.open_entries in
  if n <> pending && a.first_error = None then
    pit_error a "%s: advertised %d pending, replay has %d" node pending n

(* Slack on time comparisons, seconds. *)
let eps = 1e-9

let pit_register s ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending =
  let a = pit_acc s node in
  a.expiry <- expiry;
  let e = a.open_entries in
  if forwarded then begin
    (* [claim] may grow the table, so read [births] after it. *)
    let slot = Births.claim e ~flow ~lo ~hi in
    e.Births.births.(slot) <- s.slots.time
  end
  else if Births.find e ~flow ~lo ~hi < 0 && a.first_error = None then
    pit_error a "%s: duplicate-blocked register for absent entry" node;
  check_pending a ~node ~pending

(* A satisfy or expire closes its entry. *)
let close (a : pit_acc) ~what ~node ~flow ~lo ~hi =
  let slot = Births.find a.open_entries ~flow ~lo ~hi in
  if slot >= 0 then Births.remove a.open_entries slot
  else if a.first_error = None then
    pit_error a "%s: %s for unregistered entry" node what

let pit_satisfy s ~node ~flow ~lo ~hi ~fresh ~pending =
  let a = pit_acc s node in
  close a ~what:"satisfy" ~node ~flow ~lo ~hi;
  if fresh && s.slots.age > a.expiry +. eps then
    s.pit_satisfy_stale <- s.pit_satisfy_stale + 1;
  check_pending a ~node ~pending

let pit_expire s ~node ~flow ~lo ~hi ~pending =
  let a = pit_acc s node in
  close a ~what:"expire" ~node ~flow ~lo ~hi;
  check_pending a ~node ~pending

let deliver s ~node ~flow ~pos ~len =
  let a = stream s ~node ~flow in
  if pos <> a.next && a.first_error = None then
    a.first_error <-
      Some
        (Printf.sprintf "node %d flow %d: delivered pos %d, expected %d" node
           flow pos a.next);
  if pos + len > a.next then a.next <- pos + len

let complete s ~node ~flow ~bytes =
  let a = stream s ~node ~flow in
  if a.completed && a.first_error = None then
    a.first_error <-
      Some (Printf.sprintf "node %d flow %d: completed twice" node flow);
  if bytes <> a.next && a.first_error = None then
    a.first_error <-
      Some
        (Printf.sprintf "node %d flow %d: completed at %d bytes, delivered %d"
           node flow bytes a.next);
  a.completed <- true

let create () =
  let s =
    {
      slots = { Trace.time = 0.0; age = 0.0 };
      links = Names.create 16;
      pits = Names.create 8;
      streams = Ints.create 8;
      pit_satisfy_stale = 0;
      cache_peak_over = None;
      cache_events = 0;
      rto_events = 0;
      rto_violation = None;
    }
  in
  let fold =
    {
      Trace.slots = s.slots;
      link_enq =
        (fun ~link ~pkt:_ ~size:_ ->
          let a = link_acc s link in
          a.offered <- a.offered + 1);
      link_drop =
        (fun ~link ~pkt:_ ~reason:_ ->
          let a = link_acc s link in
          a.dropped <- a.dropped + 1);
      link_deliver =
        (fun ~link ~pkt:_ ~size:_ ->
          let a = link_acc s link in
          a.delivered <- a.delivered + 1);
      link_dup =
        (fun ~link ~pkt:_ ->
          let a = link_acc s link in
          a.dups <- a.dups + 1);
      link_final =
        (fun ~link ~offered ~delivered ~dropped ~dups ~queued ~in_flight ->
          (link_acc s link).final <-
            Some (offered, delivered, dropped, dups, queued, in_flight));
      pit_register = pit_register s;
      pit_satisfy = pit_satisfy s;
      pit_expire = pit_expire s;
      cache_occupancy =
        (fun ~node ~used ~capacity ->
          s.cache_events <- s.cache_events + 1;
          if used > capacity && s.cache_peak_over = None then
            s.cache_peak_over <- Some (node, used, capacity));
      deliver = deliver s;
      complete = complete s;
      rto_fire =
        (fun ~who ~elapsed ~floor ->
          s.rto_events <- s.rto_events + 1;
          if elapsed +. eps < floor && s.rto_violation = None then
            s.rto_violation <- Some (who, elapsed, floor));
    }
  in
  { state = s; fold }

let fold t = t.fold

let by_key bindings = List.sort (fun (a, _) (b, _) -> compare a b) bindings

let finalize ~now t =
  let s = t.state in
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
          (Births.entries a.open_entries))
      (by_key (Names.fold (fun k v acc -> (k, v) :: acc) s.pits []));
    if s.pit_satisfy_stale > 0 then
      errors :=
        Printf.sprintf "%d satisfies claimed fresh past expiry"
          s.pit_satisfy_stale
        :: !errors;
    match !errors with
    | [] ->
      {
        invariant = "pit-lifetime";
        ok = true;
        detail =
          Printf.sprintf "%d tables consistent, %d entries open and fresh"
            (Names.length s.pits) !entries;
      }
    | e :: _ -> { invariant = "pit-lifetime"; ok = false; detail = e }
  in
  let cache_report =
    match s.cache_peak_over with
    | None ->
      {
        invariant = "cache-capacity";
        ok = true;
        detail = Printf.sprintf "%d occupancy samples within capacity" s.cache_events;
      }
    | Some (node, used, cap) ->
      {
        invariant = "cache-capacity";
        ok = false;
        detail = Printf.sprintf "%s: used %d > capacity %d" node used cap;
      }
  in
  let delivery_report =
    let streams =
      by_key
        (Ints.fold
           (fun _ l acc ->
             List.fold_left (fun acc st -> ((st.node, st.flow), st) :: acc) acc l)
           s.streams [])
    in
    let errors = List.filter_map (fun (_, st) -> st.first_error) streams in
    match errors with
    | [] ->
      {
        invariant = "delivery-order";
        ok = true;
        detail =
          Printf.sprintf "%d (node, flow) streams in-order and exactly-once"
            (List.length streams);
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
      (by_key (Names.fold (fun k v acc -> (k, v) :: acc) s.links []));
    match !errors with
    | [] ->
      {
        invariant = "link-conservation";
        ok = true;
        detail = Printf.sprintf "%d links balanced" (Names.length s.links);
      }
    | e :: _ -> { invariant = "link-conservation"; ok = false; detail = e }
  in
  let rto_report =
    match s.rto_violation with
    | None ->
      {
        invariant = "rto-floor";
        ok = true;
        detail = Printf.sprintf "%d timeouts at or above the floor" s.rto_events;
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
