(** Paper-style row printers shared by the bench harness and examples. *)

(* This module is the one place in lib/ that may write to stdout: every
   other module formats its experiment output through these helpers, so
   the no-direct-print lint rule is allowed here and only here. *)
[@@@leotp.allow "no-direct-print"]

let ms s = Leotp_util.Units.sec_to_ms s

let header title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt
let newline () = print_newline ()

let cdf_rows ?(points = 10) name stats =
  Printf.printf "  CDF %s:" name;
  List.iter
    (fun (v, f) -> Printf.printf " (%.1fms, %.2f)" (ms v) f)
    (Leotp_util.Stats.cdf_points ~points stats);
  print_newline ()
