(* Tests for the Leotp_check oracle subsystem: the differential
   sender-vs-reference-model property, oracle sensitivity to planted
   divergences, engine-level timer quiescence, and the fuzz harness's
   replay spec round-trip. *)

open Leotp_tcp
module Engine = Leotp_sim.Engine
module Node = Leotp_net.Node
module Trace = Leotp_net.Trace
module Oracle = Leotp_check.Oracle
module Model = Leotp_check.Model
module Fuzz = Leotp_scenario.Fuzz

(* ------------------------------------------------------------------ *)
(* Differential property: drive a real Sender with a random script of
   ACKs (cumulative points both MSS-aligned and mid-segment, plus random
   SACK blocks), with the oracle attached; the sender's claimed state
   must match the reference model at every step. *)

type step = {
  dt : float;
  cum_frac : float;  (** position of cum_ack in [snd_una, snd_nxt] *)
  align : bool;  (** round cum_ack down to an MSS boundary *)
  dup : bool;  (** send a pure duplicate ack instead *)
  sacks : (float * float) list;  (** fractional (lo, len) above cum_ack *)
}

let mss = 1000

let build_ack s ~now:_ (st : step) =
  let una = Sender.snd_una s and nxt = Sender.snd_nxt s in
  let span = nxt - una in
  let cum =
    if st.dup || span = 0 then una
    else begin
      let c = una + int_of_float (st.cum_frac *. float_of_int span) in
      let c = if st.align then max una (c / mss * mss) else c in
      min nxt (max una c)
    end
  in
  let sacks =
    List.filter_map
      (fun (flo, flen) ->
        let span = nxt - cum in
        if span <= 0 then None
        else begin
          let lo = cum + int_of_float (flo *. float_of_int span) in
          let hi = min nxt (lo + max 1 (int_of_float (flen *. float_of_int (nxt - lo)))) in
          if hi > lo && lo >= cum then Some (lo, hi) else None
        end)
      st.sacks
  in
  (cum, sacks)

let drive ~cc ~bytes steps =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let node = Node.create ~name:"tx" in
  let trace = Trace.create ~capacity:1 ~digesting:false () in
  let oracle = Oracle.create ~mss () in
  Oracle.attach oracle trace;
  let quiescent = ref None in
  Trace.with_recorder trace
    ~clock:(fun () -> Engine.now engine)
    (fun () ->
      (* No route from [node]: data packets are dropped at the node,
         which is fine — the script supplies the acks directly. *)
      let s =
        Sender.create engine ~node ~dst:99 ~flow:1 ~cc ~mss
          ~source:(Sender.Fixed bytes) ()
      in
      Sender.start s;
      List.iter
        (fun st ->
          Engine.run ~until:(Engine.now engine +. st.dt) engine;
          if not (Sender.finished s) then begin
            let now = Engine.now engine in
            let cum, sacks = build_ack s ~now st in
            let ack =
              Wire.ack_packet ~src:99 ~dst:(Node.id node) ~flow:1 ~cum_ack:cum
            in
            List.iter (fun (lo, hi) -> Wire.add_sack ack ~lo ~hi) sacks;
            Wire.set_ts_echo ack (Float.max 0.0 (now -. (st.dt /. 2.0)));
            Sender.handle_ack s ack
          end)
        steps;
      Sender.stop s;
      quiescent := Some (Oracle.sender_quiescent s));
  (oracle, !quiescent)

let differential_prop =
  let open QCheck2 in
  let step_gen =
    Gen.(
      let* dt = float_range 0.001 0.15 in
      let* cum_frac = float_range 0.0 1.0 in
      let* align = bool in
      let* dup = frequency [ (1, pure true); (5, pure false) ] in
      let* sacks =
        list_size (int_bound 3)
          (pair (float_range 0.0 1.0) (float_range 0.0 1.0))
      in
      pure { dt; cum_frac; align; dup; sacks })
  in
  Test.make ~name:"sender agrees with reference model on random ack scripts"
    ~count:40
    Gen.(pair (oneofl Cc.all) (list_size (int_range 5 40) step_gen))
    (fun (algo, steps) ->
      let oracle, quiescent = drive ~cc:algo ~bytes:120_000 steps in
      (match Oracle.divergences oracle with
      | [] -> ()
      | ds ->
        Test.fail_reportf "%s: %d divergences\n%s" (Cc.algo_name algo)
          (List.length ds)
          (String.concat "\n" (List.map Oracle.divergence_to_string ds)));
      (match quiescent with
      | Some (Some leak) -> Test.fail_reportf "after stop: %s" leak
      | _ -> ());
      Oracle.acks oracle > 0 || steps = [])

(* ------------------------------------------------------------------ *)
(* Sensitivity: the oracle must flag planted lies, otherwise a green
   fuzz sweep proves nothing. *)

let with_oracle f =
  let trace = Trace.create ~capacity:1 ~digesting:false () in
  let oracle = Oracle.create ~mss () in
  Oracle.attach oracle trace;
  let clock = ref 0.0 in
  Trace.with_recorder trace ~clock:(fun () -> !clock) (fun () -> f clock);
  Oracle.divergences oracle

let ack_event ?(cc = "newreno") ?(phase = "ss") ?(cum_ack = 0) ?(sacks = [])
    ?rtt ~snd_una ~inflight ?(lost_pending = 0) ?(cwnd = 10_000.0) ?(rto = 1.0)
    () =
  Trace.Ack_processed
    { who = "tcp:x"; flow = 1; cc; phase; cum_ack; sacks; rtt; snd_una;
      inflight; lost_pending; cwnd; rto }

let sent ~seq ~len =
  Trace.Seg_state
    { who = "tcp:x"; flow = 1; seq; len; state = Trace.Seg_sent }

let test_oracle_flags_wrong_inflight () =
  let ds =
    with_oracle (fun _ ->
        Trace.emit (sent ~seq:0 ~len:1000);
        (* Claim the acked segment is still in flight. *)
        Trace.emit
          (ack_event ~cum_ack:1000 ~rtt:0.05 ~snd_una:1000 ~inflight:1000 ()))
  in
  Alcotest.(check bool) "divergence reported" true (ds <> [])

let test_oracle_flags_rto_below_floor () =
  let ds =
    with_oracle (fun _ ->
        Trace.emit (sent ~seq:0 ~len:1000);
        (* SRTT 0.1 -> floor = max min_rto (0.1 + 4*0.05) = 0.3; claim 0.25. *)
        Trace.emit
          (ack_event ~cum_ack:1000 ~rtt:0.1 ~snd_una:1000 ~inflight:0
             ~rto:0.25 ()))
  in
  Alcotest.(check bool) "rto floor violation reported" true (ds <> [])

let test_oracle_flags_aimd_overgrowth () =
  let ds =
    with_oracle (fun clock ->
        Trace.emit (sent ~seq:0 ~len:1000);
        Trace.emit (sent ~seq:1000 ~len:1000);
        Trace.emit
          (ack_event ~cum_ack:1000 ~rtt:0.05 ~snd_una:1000 ~inflight:1000
             ~cwnd:10_000.0 ());
        clock := 0.05;
        (* 1000 bytes acked but the window jumps by 5000. *)
        Trace.emit
          (ack_event ~cum_ack:2000 ~rtt:0.05 ~snd_una:2000 ~inflight:0
             ~cwnd:15_000.0 ()))
  in
  Alcotest.(check bool) "AIMD overgrowth reported" true (ds <> [])

let test_oracle_flags_bbr_phase_skip () =
  let ds =
    with_oracle (fun clock ->
        Trace.emit (sent ~seq:0 ~len:1000);
        Trace.emit
          (ack_event ~cc:"bbr" ~phase:"probe_bw:2" ~cum_ack:500 ~rtt:0.05
             ~snd_una:500 ~inflight:500 ());
        clock := 0.05;
        (* Gain cycle must advance one step at a time: 2 -> 4 is illegal. *)
        Trace.emit
          (ack_event ~cc:"bbr" ~phase:"probe_bw:4" ~cum_ack:1000 ~rtt:0.05
             ~snd_una:1000 ~inflight:0 ()))
  in
  Alcotest.(check bool) "bbr phase skip reported" true (ds <> [])

let test_oracle_accepts_truthful_stream () =
  let ds =
    with_oracle (fun clock ->
        Trace.emit (sent ~seq:0 ~len:1000);
        Trace.emit (sent ~seq:1000 ~len:1000);
        Trace.emit
          (ack_event ~cum_ack:1000 ~rtt:0.05 ~snd_una:1000 ~inflight:1000
             ~cwnd:11_000.0 ());
        clock := 0.05;
        Trace.emit
          (ack_event ~cum_ack:1000 ~sacks:[ (1000, 2000) ] ~snd_una:1000
             ~inflight:0 ~cwnd:12_000.0 ()))
  in
  Alcotest.(check (list string)) "clean" []
    (List.map Oracle.divergence_to_string ds)

(* The reference model on its own: straddling cumulative acks split
   segments instead of swallowing them. *)
let test_model_straddle_split () =
  let m = Model.create () in
  Alcotest.(check (list string)) "send" [] (Model.on_sent m ~seq:0 ~len:1000);
  Alcotest.(check (list string)) "send" [] (Model.on_sent m ~seq:1000 ~len:1000);
  let acked = Model.on_ack m ~cum_ack:1500 ~sacks:[] in
  Alcotest.(check int) "acked bytes" 1500 acked;
  Alcotest.(check int) "inflight keeps the tail" 500 (Model.inflight m);
  Alcotest.(check int) "tail still outstanding" 1 (Model.outstanding m);
  Alcotest.(check (list string))
    "claim with the tail dropped is flagged"
    [ "inflight: sender claims 0, model has 500" ]
    (Model.check m { Model.snd_una = 1500; inflight = 0; lost_pending = 0 })

(* ------------------------------------------------------------------ *)
(* Engine-level quiescence: pacing arms the pump timer; stop must leave
   nothing pending in the engine. *)

let test_stop_is_quiescent () =
  Leotp_net.Packet.reset_ids ();
  Node.reset_ids ();
  let engine = Engine.create () in
  let node = Node.create ~name:"tx" in
  let s =
    Sender.create engine ~node ~dst:99 ~flow:1 ~cc:Cc.Pcc ~mss
      ~source:(Sender.Fixed 50_000) ()
  in
  Sender.start s;
  (* PCC paces from the first packet: the pump timer must be armed. *)
  Alcotest.(check bool) "pacing armed a timer" true (Sender.timer_pending s);
  Sender.stop s;
  Alcotest.(check (option string)) "quiescent after stop" None
    (Oracle.sender_quiescent s)

(* ------------------------------------------------------------------ *)
(* Fuzz harness: replay specs round-trip exactly; a small sweep is
   clean and deterministic. *)

let test_fuzz_replay_roundtrip () =
  List.iteri
    (fun i spec ->
      let s = Fuzz.replay_to_string ~protocol:"bbr" spec in
      match Fuzz.replay_of_string s with
      | Error e -> Alcotest.fail e
      | Ok (protocol, spec') ->
        Alcotest.(check string)
          (Printf.sprintf "spec %d protocol" i)
          "bbr" protocol;
        Alcotest.(check string)
          (Printf.sprintf "spec %d round-trips" i)
          s
          (Fuzz.replay_to_string ~protocol spec'))
    (Fuzz.gen ~seed:11 6)

let test_fuzz_mini_sweep_clean () =
  let out = Fuzz.run ~seed:3 ~cases:2 () in
  Alcotest.(check int) "runs = cases x protocols" 16 out.Fuzz.runs;
  Alcotest.(check bool) "oracle saw acks" true (out.Fuzz.oracle_acks > 0);
  List.iter
    (fun (f : Fuzz.failure) ->
      Alcotest.failf "unexpected failure: %s %s" f.Fuzz.protocol
        (String.concat "; " f.Fuzz.problems))
    out.Fuzz.failures

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_check"
    [
      ("differential", [ qc differential_prop ]);
      ( "sensitivity",
        [
          Alcotest.test_case "wrong inflight" `Quick
            test_oracle_flags_wrong_inflight;
          Alcotest.test_case "rto below floor" `Quick
            test_oracle_flags_rto_below_floor;
          Alcotest.test_case "aimd overgrowth" `Quick
            test_oracle_flags_aimd_overgrowth;
          Alcotest.test_case "bbr phase skip" `Quick
            test_oracle_flags_bbr_phase_skip;
          Alcotest.test_case "truthful stream" `Quick
            test_oracle_accepts_truthful_stream;
          Alcotest.test_case "model straddle" `Quick test_model_straddle_split;
        ] );
      ("quiescence", [ Alcotest.test_case "stop" `Quick test_stop_is_quiescent ]);
      ( "fuzz",
        [
          Alcotest.test_case "replay round-trip" `Quick
            test_fuzz_replay_roundtrip;
          Alcotest.test_case "mini sweep" `Quick test_fuzz_mini_sweep_clean;
        ] );
    ]
