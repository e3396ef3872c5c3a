(* Golden regression over the paper-figure drivers: every
   [Experiments.fig*] and [Starlink] figure runs in quick mode with the
   invariant checker attached ({!Leotp_scenario.Invariants.self_check}),
   so a violated protocol invariant fails the test, and each result is
   checked for structural sanity (non-empty rows, finite non-negative
   throughputs and delays, Jain index in [0, 1]).  Values are
   deliberately not pinned: the reproduction target is qualitative
   shape, not exact numbers. *)

module E = Leotp_scenario.Experiments
module S = Leotp_scenario.Starlink
module C = Leotp_scenario.Common

let finite x = Float.is_finite x

let check_nonneg what x =
  if not (finite x && x >= 0.0) then
    Alcotest.failf "%s: expected finite >= 0, got %g" what x

let check_rows what rows =
  if rows = [] then Alcotest.failf "%s: no result rows" what

let test_fig02 () =
  let r = E.fig02 ~quick:true () in
  check_rows "fig02" r;
  List.iter
    (fun (name, rows) ->
      check_rows ("fig02 " ^ name) rows;
      List.iter
        (fun (hops, thr) ->
          if hops < 1 then Alcotest.failf "fig02 %s: hops %d" name hops;
          check_nonneg (Printf.sprintf "fig02 %s@%d" name hops) thr)
        rows)
    r

let test_fig03 () =
  let r = E.fig03 () in
  check_rows "fig03" r;
  List.iter
    (fun (scheme, stats) ->
      check_rows ("fig03 " ^ scheme) stats;
      List.iter
        (fun (stat, v) -> check_nonneg (scheme ^ "/" ^ stat) v)
        stats)
    r

let test_fig04 () =
  let r = E.fig04 ~quick:true () in
  check_rows "fig04" r;
  List.iter
    (fun (proto, (thr, owd)) ->
      check_nonneg ("fig04 " ^ proto ^ " throughput") thr;
      check_nonneg ("fig04 " ^ proto ^ " owd") owd)
    r

let test_fig05 () =
  let r = E.fig05 ~quick:true () in
  check_rows "fig05" r;
  List.iter
    (fun (proto, rows) ->
      check_rows ("fig05 " ^ proto) rows;
      List.iter
        (fun (pd, queuing, drops) ->
          check_nonneg ("fig05 " ^ proto ^ " prop delay") pd;
          check_nonneg ("fig05 " ^ proto ^ " queuing") queuing;
          if drops < 0 then Alcotest.failf "fig05 %s: drops %d" proto drops)
        rows)
    r

let test_fig10 () =
  let r = E.fig10 ~quick:true () in
  check_rows "fig10" r;
  List.iter
    (fun (proto, rows) ->
      check_rows ("fig10 " ^ proto) rows;
      List.iter
        (fun (plr, mean, p99) ->
          check_nonneg ("fig10 " ^ proto ^ " plr") plr;
          check_nonneg ("fig10 " ^ proto ^ " mean retx owd") mean;
          check_nonneg ("fig10 " ^ proto ^ " p99 retx owd") p99)
        rows)
    r

let check_xy_series fig r =
  check_rows fig r;
  List.iter
    (fun (proto, rows) ->
      check_rows (fig ^ " " ^ proto) rows;
      List.iter
        (fun (x, y) ->
          check_nonneg (fig ^ " " ^ proto ^ " x") x;
          check_nonneg (fig ^ " " ^ proto ^ " y") y)
        rows)
    r

let test_fig11 () = check_xy_series "fig11" (E.fig11 ~quick:true ())
let test_fig12 () = check_xy_series "fig12" (E.fig12 ~quick:true ())
let test_fig13 () = check_xy_series "fig13" (E.fig13 ~quick:true ())

let test_fig14 () =
  let r = E.fig14 ~quick:true () in
  check_rows "fig14" r;
  List.iter
    (fun (label, (thr, queuing)) ->
      check_nonneg ("fig14 " ^ label ^ " throughput") thr;
      check_nonneg ("fig14 " ^ label ^ " queuing") queuing)
    r

let test_fig15 () =
  let r = E.fig15 ~quick:true () in
  check_rows "fig15" r;
  List.iter
    (fun (label, jain, per_flow) ->
      if not (finite jain && jain >= 0.0 && jain <= 1.0 +. 1e-9) then
        Alcotest.failf "fig15 %s: Jain index %g outside [0, 1]" label jain;
      check_rows ("fig15 " ^ label) per_flow;
      List.iter (check_nonneg ("fig15 " ^ label ^ " flow Mbps")) per_flow)
    r

(* Starlink emulation (Figs 16-18, Table II). *)

let check_pairs fig r =
  check_rows fig r;
  List.iter
    (fun (proto, (p : S.pair_result)) ->
      let s = p.S.summary in
      check_nonneg (fig ^ " " ^ proto ^ " throughput") s.C.goodput_mbps;
      check_nonneg
        (fig ^ " " ^ proto ^ " owd")
        (Leotp_util.Stats.mean s.C.owd))
    r

let check_quads fig r =
  check_rows fig r;
  List.iter
    (fun (pair, label, owd_or_tput, tput_or_owd) ->
      List.iter
        (check_nonneg (Printf.sprintf "%s %s %s" fig pair label))
        [ owd_or_tput; tput_or_owd ])
    r

let test_fig16 () = check_pairs "fig16" (S.fig16 ~quick:true ())
let test_fig17 () = check_pairs "fig17" (S.fig17 ~quick:true ())
let test_fig18 () = check_quads "fig18" (S.fig18 ~quick:true ())
let test_table2 () = check_quads "table2" (S.table2 ~quick:true ())

let () =
  (* Every scenario in this binary runs with the five protocol invariants
     checked; a violation raises and fails the figure's test case. *)
  Atomic.set Leotp_scenario.Invariants.self_check true;
  Alcotest.run "leotp_golden"
    [
      ( "figures",
        [
          Alcotest.test_case "fig02" `Quick test_fig02;
          Alcotest.test_case "fig03" `Quick test_fig03;
          Alcotest.test_case "fig04" `Quick test_fig04;
          Alcotest.test_case "fig05" `Quick test_fig05;
          Alcotest.test_case "fig10" `Quick test_fig10;
          Alcotest.test_case "fig11" `Quick test_fig11;
          Alcotest.test_case "fig12" `Quick test_fig12;
          Alcotest.test_case "fig13" `Quick test_fig13;
          Alcotest.test_case "fig14" `Quick test_fig14;
          Alcotest.test_case "fig15" `Quick test_fig15;
          Alcotest.test_case "fig16" `Quick test_fig16;
          Alcotest.test_case "fig17" `Quick test_fig17;
          Alcotest.test_case "fig18" `Quick test_fig18;
          Alcotest.test_case "table2" `Quick test_table2;
        ] );
    ]
