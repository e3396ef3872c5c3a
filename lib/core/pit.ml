module Trace = Leotp_net.Trace

type entry = { mutable consumers : int list; created : float }
type key = int * int * int (* flow, lo, hi *)

(* Stale entries are reaped by an amortized sweep every [sweep_every]
   registrations: a timer-driven reaper would keep the engine's queue
   from ever draining (Engine.run with no [until] runs to quiescence),
   while the sweep bounds the table at "fresh entries + one sweep
   window" with O(1) amortized cost.  A final [expire_before] at end of
   run (Midnode.sweep) clears the tail for the leak invariant. *)
let sweep_every = 64

type t = {
  label : string;
  expiry : float;
  table : (key, entry) Hashtbl.t;
  mutable ops : int;
}

let create ?(label = "pit") ~expiry () =
  { label; expiry; table = Hashtbl.create 64; ops = 0 }

let fresh t ~now e = now -. e.created < t.expiry

let remove_emitting t key =
  Hashtbl.remove t.table key;
  if Trace.on () then begin
    let flow, lo, hi = key in
    Trace.emit
      (Trace.Pit_expire
         { node = t.label; flow; lo; hi; pending = Hashtbl.length t.table })
  end

(* Remove every entry [doomed] selects, each with a traced expiry, in
   key order: Hashtbl fold order is representation-dependent, so the
   sort keeps the trace (and its digest) a function of the entries
   alone.  Runs on a crash, a flow's retirement and once per
   [sweep_every] registrations — amortized housekeeping, not the
   per-packet path. *)
let remove_where t doomed =
  List.iter (remove_emitting t)
    (List.sort compare
       (Hashtbl.fold
          (fun k e acc -> if doomed k e then k :: acc else acc)
          t.table []))
[@@leotp.allow "hot-path-may-alloc"]

let stale t ~now _ e = not (fresh t ~now e)
let expire_before t ~now = remove_where t (stale t ~now)

(* Per-Interest PIT bookkeeping: the (flow, lo, hi) key tuple, the entry
   record, and its consumer list are the pending-interest table — the
   paper's multicast state, allocated per registration by design.  Every
   [sweep_every]-th call also builds the expiry sweep's predicate. *)
let register t ~now ~flow ~lo ~hi ~consumer =
  t.ops <- t.ops + 1;
  if t.ops mod sweep_every = 0 then remove_where t (stale t ~now);
  let key = (flow, lo, hi) in
  let forwarded =
    match Hashtbl.find_opt t.table key with
    | Some e when fresh t ~now e ->
      if not (List.mem consumer e.consumers) then
        e.consumers <- consumer :: e.consumers;
      false
    | _ ->
      Hashtbl.replace t.table key { consumers = [ consumer ]; created = now };
      true
  in
  if Trace.on () then
    Trace.emit
      (Trace.Pit_register
         {
           node = t.label;
           flow;
           lo;
           hi;
           forwarded;
           expiry = t.expiry;
           pending = Hashtbl.length t.table;
         });
  forwarded
[@@leotp.allow "hot-path-may-alloc"]

(* Same per-lookup key tuple as [register]. *)
let satisfy t ~now ~flow ~lo ~hi =
  let key = ((flow, lo, hi) [@leotp.allow "hot-path-may-alloc"]) in
  match Hashtbl.find_opt t.table key with
  | Some e ->
    Hashtbl.remove t.table key;
    let is_fresh = fresh t ~now e in
    if Trace.on () then
      Trace.emit
        (Trace.Pit_satisfy
           {
             node = t.label;
             flow;
             lo;
             hi;
             fresh = is_fresh;
             age = now -. e.created;
             pending = Hashtbl.length t.table;
           });
    if is_fresh then e.consumers else []
  | None -> []

let pending t = Hashtbl.length t.table

let clear t = remove_where t (fun _ _ -> true)
let drop_flow t ~flow = remove_where t (fun (f, _, _) _ -> f = flow)
