(* Conformance tests for the TCP congestion-control implementations,
   each against an independent statement of its published law:

   - CUBIC vs the RFC 8312 window formula (W(t) = C(t-K)^3 + Wmax with
     the TCP-friendly floor),
   - Hybla's rho = SRTT/RTT0 scaling of slow start and congestion
     avoidance (Caini & Firrincieli 2004),
   - Vegas' alpha/beta once-per-RTT +-1 MSS adjustment,
   - BBR's pacing-gain cycle around the windowed-max bandwidth estimate.

   All tests drive the controllers through the public [Cc.t] record only
   (on_ack / on_loss and the window's cwnd / pacing_rate). *)

module Cc = Leotp_tcp.Cc

let mss = 1000
let fmss = float_of_int mss

let ack cc ~now ?rtt ?bw ?(acked = mss) ?(inflight = 0) () =
  cc.Cc.on_ack
    {
      Cc.now;
      acked_bytes = acked;
      rtt_sample = rtt;
      bw_sample = bw;
      inflight;
    }

(* The pacing rate as the sender's gate reads it: [None] when unpaced. *)
let pacing cc =
  let r = cc.Cc.window.Cc.pacing_rate in
  if r > 0.0 then Some r else None

let check_close ?(eps = 1e-6) what expect got =
  if Float.abs (expect -. got) > eps *. Float.max 1.0 (Float.abs expect) then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expect got

(* ------------------------------------------------------------------ *)
(* CUBIC vs RFC 8312 *)

let cubic_beta = 0.7
let cubic_c = 0.4

(* Independent reference: the RFC 8312 congestion-avoidance update with
   a fixed SRTT (we feed no RTT samples, so the implementation's SRTT
   stays at its 100 ms initial value and HyStart never triggers). *)
let cubic_reference ~srtt ~w_max ~cwnd0 times =
  let w = ref (cwnd0 /. fmss) in
  let wmax = ref w_max in
  let epoch = ref None in
  let k = ref 0.0 in
  List.map
    (fun now ->
      (match !epoch with
      | Some _ -> ()
      | None ->
        epoch := Some now;
        if !wmax <= !w then begin
          wmax := !w;
          k := 0.0
        end
        else k := Float.cbrt (!wmax *. (1.0 -. cubic_beta) /. cubic_c));
      let t = now -. Option.get !epoch +. srtt in
      let target = (cubic_c *. ((t -. !k) ** 3.0)) +. !wmax in
      let w_est =
        (!wmax *. cubic_beta)
        +. (3.0 *. (1.0 -. cubic_beta) /. (1.0 +. cubic_beta) *. (t /. srtt))
      in
      let next =
        if target > !w then !w +. ((target -. !w) /. !w)
        else !w +. (0.01 /. !w)
      in
      w := Float.max next w_est;
      !w *. fmss)
    times

let test_cubic_rfc8312 () =
  let cc = Leotp_tcp.Cubic.create ~mss ~now:0.0 in
  check_close "initial window (RFC 6928)" (10.0 *. fmss) cc.Cc.window.Cc.cwnd;
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  (* Multiplicative decrease: beta = 0.7. *)
  check_close "beta reduction" (10.0 *. fmss *. cubic_beta) cc.Cc.window.Cc.cwnd;
  let cwnd0 = cc.Cc.window.Cc.cwnd in
  let times = List.init 120 (fun i -> 0.1 *. float_of_int (i + 1)) in
  let expected = cubic_reference ~srtt:0.1 ~w_max:10.0 ~cwnd0 times in
  let got =
    List.map
      (fun now ->
        ack cc ~now ();
        cc.Cc.window.Cc.cwnd)
      times
  in
  List.iteri
    (fun i (e, g) -> check_close (Printf.sprintf "cubic step %d" i) e g)
    (List.combine expected got);
  (* Shape: monotone in CA, plateaus near Wmax around t = K, then probes
     beyond it. *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone growth" true (monotone got);
  Alcotest.(check bool)
    "probes past Wmax" true
    (List.exists (fun w -> w > 10.0 *. fmss) got)

let test_cubic_fast_convergence () =
  let cc = Leotp_tcp.Cubic.create ~mss ~now:0.0 in
  (* Two losses in a row: the second happens below Wmax, so RFC 8312
     S4.6 shrinks Wmax to cwnd*(2-beta)/2 instead of keeping cwnd. *)
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  cc.Cc.on_loss ~now:0.1 ~inflight:0;
  check_close "two beta reductions"
    (10.0 *. fmss *. cubic_beta *. cubic_beta)
    cc.Cc.window.Cc.cwnd;
  let cwnd0 = cc.Cc.window.Cc.cwnd in
  let w_max_fc = 10.0 *. cubic_beta *. (2.0 -. cubic_beta) /. 2.0 in
  let times = List.init 30 (fun i -> 0.1 +. (0.1 *. float_of_int (i + 1))) in
  let expected = cubic_reference ~srtt:0.1 ~w_max:w_max_fc ~cwnd0 times in
  let without_fc =
    cubic_reference ~srtt:0.1 ~w_max:(10.0 *. cubic_beta) ~cwnd0 times
  in
  let got =
    List.map
      (fun now ->
        ack cc ~now ();
        cc.Cc.window.Cc.cwnd)
      times
  in
  List.iteri
    (fun i (e, g) -> check_close (Printf.sprintf "fc step %d" i) e g)
    (List.combine expected got);
  (* The reduced Wmax must actually slow regrowth versus Wmax = cwnd. *)
  Alcotest.(check bool)
    "fast convergence regrows below the plain epoch" true
    (List.exists2 (fun fc plain -> fc < plain -. 1.0) got without_fc)

(* ------------------------------------------------------------------ *)
(* Hybla *)

let hybla_rtt0 = 0.025

let test_hybla_slow_start_rho1 () =
  let cc = Leotp_tcp.Hybla.create ~mss ~now:0.0 in
  let w0 = cc.Cc.window.Cc.cwnd in
  (* No RTT samples: SRTT stays at RTT0, rho = 1, so slow start grows by
     (2^1 - 1) = 1 byte per acked byte, exactly standard TCP. *)
  ack cc ~now:0.01 ();
  check_close "rho=1 slow start" (w0 +. fmss) cc.Cc.window.Cc.cwnd

let test_hybla_ca_rho1 () =
  let cc = Leotp_tcp.Hybla.create ~mss ~now:0.0 in
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  let w0 = cc.Cc.window.Cc.cwnd in
  check_close "halved" (5.0 *. fmss) w0;
  ack cc ~now:0.01 ();
  (* CA with rho = 1: cwnd += rho^2 * MSS * acked / cwnd. *)
  check_close "rho=1 congestion avoidance"
    (w0 +. (fmss *. fmss /. w0))
    cc.Cc.window.Cc.cwnd

let test_hybla_rho_scaling () =
  (* One 225 ms sample moves SRTT to 0.875*0.025 + 0.125*0.225 = 50 ms,
     i.e. rho = 2: congestion avoidance must grow rho^2 = 4x faster than
     the rho = 1 flow at the same window. *)
  let cc = Leotp_tcp.Hybla.create ~mss ~now:0.0 in
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  let w0 = cc.Cc.window.Cc.cwnd in
  ack cc ~now:0.01 ~rtt:0.225 ();
  let srtt = (0.875 *. hybla_rtt0) +. (0.125 *. 0.225) in
  let rho = srtt /. hybla_rtt0 in
  check_close "srtt sets rho=2" 2.0 rho;
  check_close "rho^2 scaled growth"
    (w0 +. (rho *. rho *. fmss *. fmss /. w0))
    cc.Cc.window.Cc.cwnd

let test_hybla_rho_floor () =
  (* Short-RTT paths must not be penalized: rho floors at 1. *)
  let cc = Leotp_tcp.Hybla.create ~mss ~now:0.0 in
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  let w0 = cc.Cc.window.Cc.cwnd in
  (* 5 ms samples drag SRTT below RTT0. *)
  ack cc ~now:0.01 ~rtt:0.005 ();
  check_close "rho floors at 1"
    (w0 +. (fmss *. fmss /. w0))
    cc.Cc.window.Cc.cwnd

(* ------------------------------------------------------------------ *)
(* Vegas *)

let test_vegas_alpha_beta () =
  let cc = Leotp_tcp.Vegas.create ~mss ~now:0.0 in
  (* Leave slow start deterministically. *)
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  let w0 = cc.Cc.window.Cc.cwnd in
  (* Phase 1: RTT = baseRTT, so diff = 0 < alpha: each per-RTT update
     adds exactly one MSS, and acks between updates change nothing. *)
  ack cc ~now:0.01 ~rtt:0.1 ();
  check_close "first update: +1 MSS" (w0 +. fmss) cc.Cc.window.Cc.cwnd;
  ack cc ~now:0.02 ~rtt:0.1 ();
  ack cc ~now:0.05 ~rtt:0.1 ();
  check_close "no change within the RTT window" (w0 +. fmss) cc.Cc.window.Cc.cwnd;
  ack cc ~now:0.2 ~rtt:0.1 ();
  check_close "next RTT: +1 MSS again" (w0 +. (2.0 *. fmss)) cc.Cc.window.Cc.cwnd;
  (* Phase 2: inflate the RTT so diff > beta; the next update must step
     down by exactly one MSS (never a multiplicative cut). *)
  let w1 = cc.Cc.window.Cc.cwnd in
  ack cc ~now:0.25 ~rtt:0.5 ();
  ack cc ~now:0.26 ~rtt:0.5 ();
  ack cc ~now:0.27 ~rtt:0.5 ();
  check_close "srtt inflation alone does not move cwnd" w1 cc.Cc.window.Cc.cwnd;
  ack cc ~now:0.5 ~rtt:0.5 ();
  check_close "diff > beta: -1 MSS" (w1 -. fmss) cc.Cc.window.Cc.cwnd

let test_vegas_steps_bounded () =
  (* Whatever the RTT pattern, Vegas never moves the window by more than
     one MSS per update and never drops below the 2-MSS floor. *)
  let cc = Leotp_tcp.Vegas.create ~mss ~now:0.0 in
  cc.Cc.on_loss ~now:0.0 ~inflight:0;
  let rng = Leotp_util.Rng.create ~seed:5 in
  let prev = ref cc.Cc.window.Cc.cwnd in
  let ok = ref true in
  for i = 1 to 400 do
    let now = 0.05 *. float_of_int i in
    let rtt = 0.1 +. Leotp_util.Rng.float rng 0.6 in
    ack cc ~now ~rtt ();
    let w = cc.Cc.window.Cc.cwnd in
    if Float.abs (w -. !prev) > fmss +. 1e-9 then ok := false;
    if w < (2.0 *. fmss) -. 1e-9 then ok := false;
    prev := w
  done;
  Alcotest.(check bool) "per-update step <= 1 MSS, floor 2 MSS" true !ok

(* ------------------------------------------------------------------ *)
(* BBR *)

let bbr_startup_gain = 2.885
let bbr_probe_gains = [ 1.25; 0.75; 1.0; 1.0; 1.0; 1.0; 1.0; 1.0 ]

let test_bbr_pacing_is_gain_times_bw () =
  let cc = Leotp_tcp.Bbr.create ~mss ~now:0.0 in
  Alcotest.(check bool)
    "no pacing before a bandwidth sample" true
    (pacing cc = None);
  let bw = 1_250_000.0 in
  ack cc ~now:0.05 ~rtt:0.05 ~bw ();
  (match pacing cc with
  | Some r -> check_close "startup: 2.885 x bw" (bbr_startup_gain *. bw) r
  | None -> Alcotest.fail "expected a pacing rate");
  (* A larger sample raises the windowed max immediately. *)
  ack cc ~now:0.1 ~rtt:0.05 ~bw:(2.0 *. bw) ();
  match pacing cc with
  | Some r ->
    check_close "windowed max tracks up" (bbr_startup_gain *. 2.0 *. bw) r
  | None -> Alcotest.fail "expected a pacing rate"

(* Drive Startup to full-pipe (3 rounds without bandwidth growth), then
   Drain, then collect one full ProbeBW gain cycle. *)
let test_bbr_gain_cycle () =
  let cc = Leotp_tcp.Bbr.create ~mss ~now:0.0 in
  let bw = 1_250_000.0 in
  let now = ref 0.0 in
  let step ?(inflight = 100_000) () =
    now := !now +. 0.2;
    ack cc ~now:!now ~rtt:0.05 ~bw ~inflight ()
  in
  let gain () =
    match pacing cc with
    | Some r -> r /. bw
    | None -> Alcotest.fail "expected a pacing rate"
  in
  (* Startup: constant bandwidth; full-pipe detection takes 3 spaced
     rounds, after which the controller drains at 1/2.885. *)
  let drained = ref false in
  for _ = 1 to 10 do
    if not !drained then begin
      step ();
      if Float.abs (gain () -. (1.0 /. bbr_startup_gain)) < 1e-6 then
        drained := true
    end
  done;
  Alcotest.(check bool) "reaches Drain at 1/startup gain" true !drained;
  (* Inflight at/below BDP ends Drain. *)
  step ~inflight:0 ();
  check_close "ProbeBW entry gain" 1.0 (gain ());
  (* Each further ack is spaced past min_rtt, so each advances the
     8-phase gain cycle: 5x cruise, probe 1.25, compensate 0.75, cruise. *)
  let observed =
    List.init 8 (fun _ ->
        step ();
        gain ())
  in
  let expected = [ 1.0; 1.0; 1.0; 1.0; 1.0; 1.25; 0.75; 1.0 ] in
  List.iteri
    (fun i (e, g) -> check_close (Printf.sprintf "cycle phase %d" i) e g)
    (List.combine expected observed);
  (* The cycle is the canonical BBR gain multiset. *)
  let sorted = List.sort compare observed in
  Alcotest.(check bool)
    "gains are a rotation of the BBR cycle" true
    (sorted = List.sort compare bbr_probe_gains)

let test_bbr_cwnd_tracks_bdp () =
  let cc = Leotp_tcp.Bbr.create ~mss ~now:0.0 in
  let bw = 1_250_000.0 in
  ack cc ~now:0.05 ~rtt:0.05 ~bw ();
  (* cwnd_gain x BDP with BDP = bw x min_rtt; startup cwnd gain 2.885. *)
  check_close "cwnd = gain x BDP"
    (bbr_startup_gain *. bw *. 0.05)
    cc.Cc.window.Cc.cwnd;
  (* Loss does not touch the model (BBR v1 ignores loss). *)
  let w = cc.Cc.window.Cc.cwnd in
  cc.Cc.on_loss ~now:0.06 ~inflight:0;
  check_close "loss-blind" w cc.Cc.window.Cc.cwnd

(* ------------------------------------------------------------------ *)
(* Every controller's window after random event scripts *)

type event =
  | Ack of { dt : float; acked : int; rtt : float option; bw : float option }
  | Loss
  | Rto

let print_event = function
  | Ack { dt; acked; rtt; bw } ->
    let opt = function Some x -> Printf.sprintf "%g" x | None -> "-" in
    Printf.sprintf "ack(+%gs %dB rtt=%s bw=%s)" dt acked (opt rtt) (opt bw)
  | Loss -> "loss"
  | Rto -> "rto"

let controllers =
  Leotp_tcp.
    [
      (Cc.Newreno, Newreno.create);
      (Cc.Cubic, Cubic.create);
      (Cc.Hybla, Hybla.create);
      (Cc.Westwood, Westwood.create);
      (Cc.Vegas, Vegas.create);
      (Cc.Bbr, Bbr.create);
      (Cc.Pcc, Pcc_vivace.create);
    ]

(* The window after one event, given the [cwnd] before it: finite, at
   least 1 MSS and unpaced for the loss-based controllers (PCC always
   paces); each loss-based law's cut on loss and collapse on RTO; BBR
   and PCC blind to both; ["ss"] exactly below ssthresh where the phase
   is the window's. *)
let window_fault algo cc ev ~before =
  let w = cc.Cc.window in
  let m = w.Cc.mss and cwnd = w.Cc.cwnd and ssthresh = w.Cc.ssthresh in
  let cut factor = Float.max (before *. factor) (2.0 *. m) in
  let cut_to x = Float.equal cwnd x && Float.equal ssthresh x in
  let loss_based = not (algo = Cc.Bbr || algo = Cc.Pcc) in
  let rate = w.Cc.pacing_rate in
  if not (Float.is_finite cwnd && cwnd >= m) then
    Some "cwnd not finite or below 1 MSS"
  else if not (Float.is_finite rate && rate >= 0.0) then
    Some "pacing rate not finite or negative"
  else if loss_based && rate <> 0.0 then Some "loss-based controller paces"
  else if algo = Cc.Pcc && not (rate > 0.0) then Some "pcc does not pace"
  else if
    (match algo with
    | Cc.Newreno | Cubic | Hybla | Westwood ->
      (cc.Cc.phase () = "ss") <> (cwnd < ssthresh)
    | _ -> false)
  then Some "phase disagrees with cwnd < ssthresh"
  else
    match (ev, algo) with
    | Loss, (Cc.Newreno | Hybla) when not (cut_to (cut 0.5)) ->
      Some "loss: not max (cwnd/2, 2 MSS)"
    | Loss, Cubic when not (cut_to (cut 0.7)) ->
      Some "loss: not max (0.7 cwnd, 2 MSS)"
    | Loss, Vegas when not (cut_to (cut 0.75)) ->
      Some "loss: not max (0.75 cwnd, 2 MSS)"
    | Rto, (Newreno | Cubic | Hybla | Westwood | Vegas)
      when not (Float.equal cwnd m && ssthresh >= 2.0 *. m) ->
      Some "rto: not a 1-MSS window over ssthresh >= 2 MSS"
    | Rto, (Newreno | Hybla | Vegas)
      when not (Float.equal ssthresh (cut 0.5)) ->
      Some "rto: ssthresh not max (cwnd/2, 2 MSS)"
    | (Loss | Rto), (Bbr | Pcc) when not (Float.equal cwnd before) ->
      Some "loss or rto moved a model-based window"
    | _ -> None

let window_prop =
  let open QCheck2 in
  let event_gen =
    Gen.(
      frequency
        [
          ( 8,
            let* dt = float_range 0.0 0.2 in
            let* acked = int_range 0 20_000 in
            let* rtt = opt (float_range 0.001 0.5) in
            let* bw = opt (float_range 1e3 1e7) in
            pure (Ack { dt; acked; rtt; bw }) );
          (1, pure Loss);
          (1, pure Rto);
        ])
  in
  Test.make ~name:"controller window sane after every event" ~count:200
    ~print:(fun evs -> String.concat "; " (List.map print_event evs))
    Gen.(list_size (int_range 1 200) event_gen)
    (fun events ->
      List.iter
        (fun (algo, create) ->
          let cc = create ~mss ~now:0.0 in
          let now = ref 0.0 in
          List.iteri
            (fun i ev ->
              let before = cc.Cc.window.Cc.cwnd in
              (match ev with
              | Ack { dt; acked; rtt; bw } ->
                now := !now +. dt;
                ack cc ~now:!now ?rtt ?bw ~acked ()
              | Loss -> cc.Cc.on_loss ~now:!now ~inflight:0
              | Rto -> cc.Cc.on_rto ~now:!now);
              match window_fault algo cc ev ~before with
              | None -> ()
              | Some fault ->
                Test.fail_reportf "%s, event %d (%s): %s (cwnd %g -> %g)"
                  (Cc.algo_name algo) i (print_event ev) fault before
                  cc.Cc.window.Cc.cwnd)
            events)
        controllers;
      true)

let () =
  Alcotest.run "leotp_cc"
    [
      ( "cubic",
        [
          Alcotest.test_case "RFC 8312 trajectory" `Quick test_cubic_rfc8312;
          Alcotest.test_case "fast convergence" `Quick
            test_cubic_fast_convergence;
        ] );
      ( "hybla",
        [
          Alcotest.test_case "slow start rho=1" `Quick
            test_hybla_slow_start_rho1;
          Alcotest.test_case "CA rho=1" `Quick test_hybla_ca_rho1;
          Alcotest.test_case "rho scaling" `Quick test_hybla_rho_scaling;
          Alcotest.test_case "rho floor" `Quick test_hybla_rho_floor;
        ] );
      ( "vegas",
        [
          Alcotest.test_case "alpha/beta bounds" `Quick test_vegas_alpha_beta;
          Alcotest.test_case "bounded steps" `Quick test_vegas_steps_bounded;
        ] );
      ( "bbr",
        [
          Alcotest.test_case "pacing = gain x bw" `Quick
            test_bbr_pacing_is_gain_times_bw;
          Alcotest.test_case "gain cycle" `Quick test_bbr_gain_cycle;
          Alcotest.test_case "cwnd tracks BDP" `Quick test_bbr_cwnd_tracks_bdp;
        ] );
      ("window", [ QCheck_alcotest.to_alcotest window_prop ]);
    ]
