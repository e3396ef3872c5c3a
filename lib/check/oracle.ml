module Trace = Leotp_net.Trace

type divergence = { time : float; who : string; flow : int; what : string }

(* Replica of Leotp_util.Rto's RFC 6298 estimator: same constants, same
   float operations in the same order, so the floor we compute here is
   bit-identical to the base timeout the sender derives.  Backoff is not
   replicated — it only raises the timeout, and the oracle asserts a
   lower bound. *)
module Rto_replica = struct
  type t = { mutable srtt : float; mutable rttvar : float; mutable primed : bool }

  let min_rto = 0.2
  let max_rto = 60.0
  let initial_rto = 1.0

  let create () = { srtt = 0.0; rttvar = 0.0; primed = false }

  let observe t r =
    if t.primed then begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. r));
      t.srtt <- (0.875 *. t.srtt) +. (0.125 *. r)
    end
    else begin
      t.srtt <- r;
      t.rttvar <- r /. 2.0;
      t.primed <- true
    end

  let floor t =
    if t.primed then
      Float.min max_rto
        (Float.max min_rto (t.srtt +. Float.max 0.000_1 (4.0 *. t.rttvar)))
    else initial_rto
end

(* Per-(sender, flow) connection state: reference model + estimator
   replica + the previous congestion-controller observation. *)
type conn = {
  model : Model.t;
  rto : Rto_replica.t;
  mutable prev_cwnd : float option;
  mutable prev_phase : string option;
  (* Vegas once-per-RTT bookkeeping. *)
  mutable vegas_srtt : float;  (** NaN until the first sample *)
  mutable vegas_next_growth : float;
}

type t = {
  mss : int;
  conns : (string * int, conn) Hashtbl.t;
  mutable divergences : divergence list;  (** newest first *)
  mutable acks : int;
  mutable seg_events : int;
}

(* Float-comparison slack. *)
let eps = 1e-6

let create ~mss () =
  { mss; conns = Hashtbl.create 8; divergences = []; acks = 0; seg_events = 0 }

let conn t key =
  match Hashtbl.find_opt t.conns key with
  | Some c -> c
  | None ->
    let c =
      {
        model = Model.create ();
        rto = Rto_replica.create ();
        prev_cwnd = None;
        prev_phase = None;
        vegas_srtt = Float.nan;
        vegas_next_growth = Float.neg_infinity;
      }
    in
    Hashtbl.replace t.conns key c;
    c

let diverge t ~time ~who ~flow what =
  t.divergences <- { time; who; flow; what } :: t.divergences

(* --- per-CC semantic checks ------------------------------------------- *)

(* BBR gain-cycle legality: which phases may follow [prev] by the next
   ACK.  Within one on_ack the mode machine takes at most one step into
   probe_rtt on top of at most one regular step, and regular steps
   serialize, so consecutive observations differ by at most one edge. *)
let bbr_step_ok ~prev ~next =
  let probe_bw_index p =
    if String.length p > 9 && String.sub p 0 9 = "probe_bw:" then
      int_of_string_opt (String.sub p 9 (String.length p - 9))
    else None
  in
  if prev = next then true
  else if next = "probe_rtt" then
    (* A stale min-RTT estimate forces ProbeRTT from any mode. *)
    true
  else
    match (probe_bw_index prev, probe_bw_index next) with
    | Some i, Some j -> j = (i + 1) mod 8
    | None, Some _ -> prev = "drain" || prev = "probe_rtt"
    | Some _, None -> false (* ProbeBW only exits into ProbeRTT *)
    | None, None ->
      (prev = "startup" && next = "drain")
      || (prev = "probe_rtt" && next = "startup")

let pcc_step_ok ~prev ~next =
  prev = next
  ||
  match (prev, next) with
  | "starting", "probe_up" -> true
  | "probe_up", "probe_down" -> true
  | "probe_down", "probe_up" -> true
  | _ -> false

let check_cc t (c : conn) ~time ~who ~flow ~cc ~phase ~cwnd ~acked =
  let fail what = diverge t ~time ~who ~flow what in
  let fmss = float_of_int t.mss in
  if not (Float.is_finite cwnd && cwnd > 0.0) then
    fail (Printf.sprintf "cc %s: cwnd %g not a positive finite window" cc cwnd);
  (match cc with
  | "newreno" | "westwood" -> (
    (* Loss-based AIMD: acks grow the window by at most the bytes they
       acknowledge; every other transition (loss, RTO) shrinks it. *)
    match c.prev_cwnd with
    | Some prev when cwnd > prev +. float_of_int acked +. eps ->
      fail
        (Printf.sprintf
           "cc %s: cwnd grew %g -> %g on %d acked bytes (AIMD bound %g)" cc
           prev cwnd acked
           (prev +. float_of_int acked))
    | _ -> ())
  | "vegas" ->
    (match c.prev_cwnd with
    | Some prev when cwnd > prev +. eps ->
      (* Window growth is gated to once per RTT and bounded by one MSS
         (congestion avoidance) or a doubling (slow start). *)
      if time +. eps < c.vegas_next_growth then
        fail
          (Printf.sprintf
             "cc vegas: window grew at %.6f, earliest legal growth %.6f (once per RTT)"
             time c.vegas_next_growth);
      if cwnd -. prev > Float.max prev fmss +. eps then
        fail
          (Printf.sprintf
             "cc vegas: growth %g exceeds max(cwnd, mss) = %g" (cwnd -. prev)
             (Float.max prev fmss));
      c.vegas_next_growth <-
        time +. (if Float.is_nan c.vegas_srtt then 0.1 else c.vegas_srtt)
    | _ -> ())
  | "bbr" ->
    (match c.prev_phase with
    | Some prev when not (bbr_step_ok ~prev ~next:phase) ->
      fail (Printf.sprintf "cc bbr: illegal gain-cycle step %s -> %s" prev phase)
    | _ -> ());
    if phase = "probe_rtt" && Float.abs (cwnd -. (4.0 *. fmss)) > eps then
      fail
        (Printf.sprintf "cc bbr: probe_rtt window %g, expected 4*MSS = %g" cwnd
           (4.0 *. fmss))
  | "pcc" -> (
    match c.prev_phase with
    | Some prev when not (pcc_step_ok ~prev ~next:phase) ->
      fail (Printf.sprintf "cc pcc: illegal monitor-interval step %s -> %s" prev phase)
    | _ -> ())
  | _ -> ());
  c.prev_cwnd <- Some cwnd;
  c.prev_phase <- Some phase

(* --- trace sink -------------------------------------------------------- *)

let sink t (r : Trace.record) =
  match r.Trace.event with
  | Trace.Seg_state { who; flow; seq; len; state } ->
    t.seg_events <- t.seg_events + 1;
    let c = conn t (who, flow) in
    let errs =
      match state with
      | Trace.Seg_sent -> Model.on_sent c.model ~seq ~len
      | Trace.Seg_retx -> Model.on_retx c.model ~seq ~len
      | Trace.Seg_lost -> Model.on_lost c.model ~seq ~len
    in
    List.iter (diverge t ~time:r.Trace.time ~who ~flow) errs
  | Trace.Ack_processed
      { who; flow; cc; phase; cum_ack; sacks; rtt; snd_una; inflight;
        lost_pending; cwnd; rto } ->
    t.acks <- t.acks + 1;
    let c = conn t (who, flow) in
    let acked = Model.on_ack c.model ~cum_ack ~sacks in
    List.iter
      (diverge t ~time:r.Trace.time ~who ~flow)
      (Model.check c.model { Model.snd_una; inflight; lost_pending });
    (* RFC 6298 lower bound, replayed on the same samples the sender saw.
       Update order matches Sender.handle_ack: sample first, then arm. *)
    (match rtt with
    | Some sample ->
      Rto_replica.observe c.rto sample;
      c.vegas_srtt <-
        (if Float.is_nan c.vegas_srtt then sample
         else (0.875 *. c.vegas_srtt) +. (0.125 *. sample))
    | None -> ());
    let floor = Rto_replica.floor c.rto in
    if rto +. eps < floor then
      diverge t ~time:r.Trace.time ~who ~flow
        (Printf.sprintf "rto %.9f below RFC 6298 floor %.9f (SRTT+4*RTTVAR)"
           rto floor);
    check_cc t c ~time:r.Trace.time ~who ~flow ~cc ~phase ~cwnd ~acked
  | _ -> ()

let attach t trace = Trace.add_sink trace (sink t)

let divergences t = List.rev t.divergences
let acks t = t.acks
let seg_events t = t.seg_events
let connections t = Hashtbl.length t.conns

let divergence_to_string d =
  Printf.sprintf "[%.6f] %s flow %d: %s" d.time d.who d.flow d.what

(* Engine-level quiescence: a finished or stopped sender must have left
   nothing armed in the engine. *)
let sender_quiescent s =
  if Leotp_tcp.Sender.timer_pending s then
    Some "a sender timer is still armed in the engine after finish/stop"
  else None
