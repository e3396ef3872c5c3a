module Trace = Leotp_net.Trace
module Range_table = Leotp_util.Range_table

(* Stale entries are reaped by an amortized sweep every [sweep_every]
   registrations: a timer-driven reaper would keep the engine's queue
   from ever draining (Engine.run with no [until] runs to quiescence),
   while the sweep bounds the table at "fresh entries + one sweep
   window" with O(1) amortized cost.  A final [expire_before] at end of
   run (Midnode.sweep) clears the tail for the leak invariant. *)
let sweep_every = 64

(* One slot per pending range: the stamp is the entry's birth time, the
   value its first consumer and the further values the consumers that
   joined later, newest first. *)
type t = {
  label : string;
  expiry : float;
  table : Range_table.t;
  mutable ops : int;
  mutable waiting : int;  (** consumers the last [satisfy] returned *)
  mutable first : int;
  mutable later : int list;
}

let create ?(label = "pit") ~expiry () =
  {
    label;
    expiry;
    table = Range_table.create ();
    ops = 0;
    waiting = 0;
    first = 0;
    later = [];
  }

let fresh t ~now s = Range_table.younger t.table s ~now ~than:t.expiry
let stale t ~now s = not (fresh t ~now s)
let every _ ~now:_ _ = true

let rec remove_emitting t = function
  | [] -> ()
  | (flow, lo, hi) :: rest ->
    Range_table.remove t.table (Range_table.find t.table ~flow ~lo ~hi);
    if Trace.on () then
      Trace.pit_expire ~node:t.label ~flow ~lo ~hi
        ~pending:(Range_table.length t.table);
    remove_emitting t rest

(* Remove every entry [doomed] selects, each with a traced expiry, in
   key order: slot order is representation-dependent, so the sort keeps
   the trace (and its digest) a function of the entries alone.  Runs on
   a crash, a flow's retirement and once per [sweep_every]
   registrations — amortized housekeeping, not the per-packet path; a
   sweep that finds nothing to remove allocates nothing. *)
let remove_where t ~now doomed =
  let tbl = t.table in
  let keys = ref [] in
  for s = Range_table.slots tbl - 1 downto 0 do
    if Range_table.occupied tbl s && doomed t ~now s then
      keys :=
        (Range_table.flow tbl s, Range_table.lo tbl s, Range_table.hi tbl s)
        :: !keys
  done;
  (* [List.sort] builds its merge closures even for an empty list. *)
  match !keys with [] -> () | keys -> remove_emitting t (List.sort compare keys)
[@@leotp.allow "hot-path-may-alloc"]

let expire_before t ~now = remove_where t ~now stale

let register t ~now ~flow ~lo ~hi ~consumer =
  t.ops <- t.ops + 1;
  if t.ops mod sweep_every = 0 then expire_before t ~now;
  let tbl = t.table in
  let s = Range_table.find tbl ~flow ~lo ~hi in
  let forwarded =
    if s >= 0 && fresh t ~now s then begin
      if
        Range_table.value tbl s <> consumer
        && not (List.mem consumer (Range_table.more tbl s))
      then Range_table.push_more tbl s consumer;
      false
    end
    else begin
      (* A stale entry is renewed in its slot: [pending] counts it once. *)
      let s = if s >= 0 then s else Range_table.add tbl ~flow ~lo ~hi in
      Range_table.set tbl s ~stamp:now ~value:consumer;
      true
    end
  in
  if Trace.on () then
    Trace.pit_register ~node:t.label ~flow ~lo ~hi ~forwarded ~expiry:t.expiry
      ~pending:(Range_table.length tbl);
  forwarded

let satisfy t ~now ~flow ~lo ~hi =
  let tbl = t.table in
  let s = Range_table.find tbl ~flow ~lo ~hi in
  if s < 0 then t.waiting <- 0
  else begin
    let is_fresh = fresh t ~now s in
    t.waiting <- (if is_fresh then 1 + List.length (Range_table.more tbl s) else 0);
    t.first <- Range_table.value tbl s;
    t.later <- Range_table.more tbl s;
    if Trace.on () then
      Trace.pit_satisfy ~node:t.label ~flow ~lo ~hi ~fresh:is_fresh ~now
        ~stamps:(Range_table.stamps tbl) ~slot:s
        ~pending:(Range_table.length tbl - 1);
    Range_table.remove tbl s
  end;
  t.waiting

let waiter t i =
  if i < 0 || i >= t.waiting then invalid_arg "Pit.waiter"
  else if i = t.waiting - 1 then t.first
  else List.nth t.later i

let pending t = Range_table.length t.table

let clear t = remove_where t ~now:0.0 every
let drop_flow t ~flow =
  remove_where t ~now:0.0 (fun t ~now:_ s -> Range_table.flow t.table s = flow)
