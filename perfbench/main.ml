(* The repo benchmark command (see perfbench/README.md):

     main.exe --workload chain|manyflow|pathtrace --seed N --seconds S --trace 0|1

   Prints the metric table and any failed operation on stderr, and one
   JSON result line last on stdout.  [--trace 1] also writes the run's
   spans to .perfbench/spans-<workload>-<seed>.json. *)

module W = Perfbench.Workloads
module M = Perfbench.Measure

let usage =
  "main.exe --workload chain|manyflow|pathtrace --seed N --seconds S --trace 0|1"

let spans_dir = ".perfbench"

let write_spans ~workload ~seed =
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path =
    Filename.concat spans_dir (Printf.sprintf "spans-%s-%d.json" workload seed)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Perfbench.Spans.to_json ()));
  path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME chain | manyflow | pathtrace");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S host seconds of timed iterations");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline ("--trace expects 0 or 1\n" ^ usage);
    exit 2
  end;
  match W.make ~size:W.full ~seed:!seed !workload with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n%s\n" !workload
      (String.concat ", " W.names) usage;
    exit 2
  | Some w ->
    let r =
      if !trace = 1 then M.traced ~size:W.full ~seed:!seed ~seconds:!seconds w
      else M.plain ~seconds:!seconds w
    in
    List.iter prerr_endline r.M.notes;
    List.iter
      (fun (name, v) ->
        Printf.eprintf "  %-32s %16.6g %s\n" name v (List.assoc name r.M.units))
      r.M.metrics;
    List.iter
      (fun reason -> Printf.eprintf "FAILED: %s\n" reason)
      (List.rev r.M.tally.M.reasons);
    if !trace = 1 then
      Printf.eprintf "spans written to %s\n" (write_spans ~workload:!workload ~seed:!seed);
    print_endline (M.result_line r)
