type hop_state = { delay : float; bandwidth : Bandwidth.t; plr : float }
type snapshot = hop_state array

(* Switch thresholds.  Delay: 50 us ~ 15 km of path change, well above
   numeric jitter and well below any real handover.  Bandwidth: 4 Mbps,
   so the paper's per-second +/-0.5 Mbps bias and the 1.5 Mbps/s handover
   "V" slope do not read as switches while a 10 -> 20 Mbps hop swap does.
   Plr: GSL (1%) vs ISL (0.1%) hop substitutions are above it. *)
let delay_eps = 50e-6
let bw_eps = Leotp_util.Units.mbps_to_bytes_per_sec 4.0
let plr_eps = 5e-3

type t = {
  engine : Leotp_sim.Engine.t;
  chain : Topology.chain;
  max_hops : int;
  mutable active_hops : int;
  mutable switch_count : int;
}

(* Pass-through hops stand in for "this relay is not on the current route":
   they add (almost) nothing to the path. *)
let pass_through_delay = 20e-6
let pass_through_bw = Bandwidth.constant_mbps 10_000.0

let to_spec (h : hop_state) =
  Topology.hop ~plr:h.plr ~bandwidth:h.bandwidth ~delay:h.delay ()

let create engine ~rng ~max_hops ~initial () =
  assert (Array.length initial <= max_hops);
  let specs =
    Array.init max_hops (fun i ->
        if i < Array.length initial then to_spec initial.(i)
        else
          Topology.hop ~bandwidth:pass_through_bw ~delay:pass_through_delay ())
  in
  let chain = Topology.chain engine ~rng specs in
  {
    engine;
    chain;
    max_hops;
    active_hops = Array.length initial;
    switch_count = 0;
  }

let chain t = t.chain

(* A switch is any above-epsilon change in *any* dimension: a handover
   that keeps the delay but lands on a different-rate (or lossier) link
   must still flush in-flight packets and count in [switch_count]. *)
let update_link link ~delay ~bandwidth ~plr =
  let changed =
    Float.abs (Link.delay link -. delay) > delay_eps
    || not (Bandwidth.approx_equal ~epsilon:bw_eps (Link.bandwidth link) bandwidth)
    || Float.abs (Link.plr link -. plr) > plr_eps
  in
  Link.set_delay link delay;
  Link.set_bandwidth link bandwidth;
  Link.set_plr link plr;
  if changed then Link.flush link;
  changed

(* Runs once per topology snapshot — handover timescale (seconds), not
   the per-packet path, even though the applying timer event is hot. *)
let apply t snapshot =
  let n = Array.length snapshot in
  assert (n <= t.max_hops);
  let any_switch = ref false in
  for i = 0 to t.max_hops - 1 do
    let delay, bandwidth, plr =
      if i < n then (snapshot.(i).delay, snapshot.(i).bandwidth, snapshot.(i).plr)
      else (pass_through_delay, pass_through_bw, 0.0)
    in
    let d = t.chain.Topology.hops.(i) in
    let c1 = update_link d.Topology.fwd ~delay ~bandwidth ~plr in
    (* The reverse direction keeps the same delay/plr; its bandwidth is the
       forward one too (Interest/ACK traffic is tiny). *)
    let c2 = update_link d.Topology.rev ~delay ~bandwidth ~plr in
    if c1 || c2 then any_switch := true
  done;
  t.active_hops <- n;
  if !any_switch then t.switch_count <- t.switch_count + 1
[@@leotp.allow "hot-path-may-alloc"]

let schedule t items =
  List.iter
    (fun (time, snap) ->
      ignore
        (Leotp_sim.Engine.schedule_at t.engine ~time (fun () -> apply t snap)))
    items

let active_hops t = t.active_hops
let switch_count t = t.switch_count

(* ------------------------------------------------------------------ *)
(* Trace replay. *)

let hop_state_of_trace (h : Path_trace.hop) =
  {
    delay = h.Path_trace.delay;
    bandwidth =
      Bandwidth.Constant
        (Leotp_util.Units.mbps_to_bytes_per_sec h.Path_trace.bw_mbps);
    plr = h.Path_trace.plr;
  }

let snapshot_of_hops ~max_hops (hops : Path_trace.hop array) =
  Array.init
    (min (Array.length hops) max_hops)
    (fun i -> hop_state_of_trace hops.(i))

let apply_outage t (ev : Leotp_sim.Fault.event) =
  let set_hop i v =
    if i >= 0 && i < t.max_hops then begin
      let d = t.chain.Topology.hops.(i) in
      Link.set_up d.Topology.fwd v;
      Link.set_up d.Topology.rev v
    end
  in
  match ev.Leotp_sim.Fault.action with
  | Leotp_sim.Fault.Link_down (Leotp_sim.Fault.Hop i) -> set_hop i false
  | Leotp_sim.Fault.Link_up (Leotp_sim.Fault.Hop i) -> set_hop i true
  | _ -> ()

(* Every outage window takes the whole chain down: with no route there is
   no partial path either, and taking links down drops in-flight packets
   through the regular fault plumbing. *)
let outage_schedule t (tr : Path_trace.t) =
  List.concat_map
    (fun (a, b) ->
      List.concat
        (List.init t.max_hops (fun i ->
             [
               {
                 Leotp_sim.Fault.time = a;
                 action = Leotp_sim.Fault.Link_down (Leotp_sim.Fault.Hop i);
               };
               {
                 Leotp_sim.Fault.time = b;
                 action = Leotp_sim.Fault.Link_up (Leotp_sim.Fault.Hop i);
               };
             ])))
    (Path_trace.outage_intervals tr)

let schedule_trace t (tr : Path_trace.t) =
  schedule t
    (List.filter_map
       (fun (r : Path_trace.record) ->
         match r.Path_trace.event with
         | Path_trace.Route { hops; _ } ->
           Some (r.Path_trace.time, snapshot_of_hops ~max_hops:t.max_hops hops)
         | Path_trace.No_route -> None)
       tr.Path_trace.records);
  (* Snapshots are scheduled before outage events, so at an outage-ending
     instant the new route's parameters apply first and the link comes
     back up second — deterministically, via the engine's FIFO tie-break. *)
  Leotp_sim.Fault.install t.engine ~apply:(apply_outage t)
    (outage_schedule t tr)

let max_trace_hops = 24

let of_trace engine ~rng (tr : Path_trace.t) =
  let max_hops = min max_trace_hops (Path_trace.max_hop_count tr) in
  match
    List.find_map
      (fun (r : Path_trace.record) ->
        match r.Path_trace.event with
        | Path_trace.Route { hops; _ } -> Some hops
        | Path_trace.No_route -> None)
      tr.Path_trace.records
  with
  | None -> invalid_arg "Dynamic_path.of_trace: trace has no route record"
  | Some hops ->
    let t =
      create engine ~rng ~max_hops ~initial:(snapshot_of_hops ~max_hops hops) ()
    in
    schedule_trace t tr;
    t
