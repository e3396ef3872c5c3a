(* Intra-protocol fairness (the paper's Fig 15 scenario): three flows with
   different RTTs share a 5 Mbps bottleneck, starting 80 s apart.

     dune exec examples/fairness.exe

   Compare LEOTP's RTT-independent sharing against BBR's RTT bias. *)

module C = Leotp_scenario.Common

let () =
  let run label proto =
    let summaries, series =
      C.run_flows_dumbbell ~duration:360.0
        ~access_delays:[ 0.015; 0.0225; 0.03 ] (* RTTs 90 / 120 / 150 ms *)
        ~bottleneck:(C.link ~bw:5.0 ~delay:0.015 ())
        ~access:(C.link ~bw:100.0 ~delay:0.0075 ())
        ~starts:[ 0.0; 80.0; 160.0 ] proto
    in
    let rates =
      List.map
        (fun s -> Leotp_net.Flow_metrics.goodput_mbps s.C.delivery ~lo:200.0 ~hi:360.0)
        summaries
    in
    Printf.printf "%s: steady-state shares = [%s] Mbps, Jain index = %.3f\n"
      label
      (String.concat "; " (List.map (Printf.sprintf "%.2f") rates))
      (Leotp_util.Stats.jain_index rates);
    (* A small convergence plot: flow throughput every 30 s. *)
    List.iteri
      (fun i s ->
        Printf.printf "  flow %d (RTT %3.0f ms): " (i + 1)
          (List.nth [ 90.0; 120.0; 150.0 ] i);
        List.iter
          (fun (t, v) ->
            if Float.rem t 30.0 < 5.0 then Printf.printf "%5.1f@%.0fs " v t)
          s;
        print_newline ())
      series
  in
  run "LEOTP" (C.Leotp Leotp.Config.default);
  run "BBR  " (C.Tcp Leotp_tcp.Cc.Bbr)
