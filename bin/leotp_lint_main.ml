(* leotp-lint CLI: parse .ml trees once, run the per-file rules and the
   race, own and dim interprocedural passes over them, print text
   findings, optionally write a JSON report.

   Usage: leotp_lint.exe [--json FILE] [--rules [--markdown]] [--quiet]
   [PATH ...]
   Default paths: lib bench bin (relative to the cwd).

   Exit codes (bin/ci.sh relies on this contract):
     0  clean, or warning-severity findings only
     1  at least one error-severity finding
     2  internal failure: unreadable/unparseable input or a crash in
        the analyzer itself *)

open Leotp_lint

let usage =
  "leotp_lint [--json FILE] [--rules [--markdown]] [--quiet] [PATH ...]\n\
   Static determinism/hygiene analysis (see LINT.md).  Default paths: \
   lib bench bin.\n\n\
   Exit codes: 0 = no error-severity findings (warnings allowed);\n\
   \            1 = error-severity findings;\n\
   \            2 = internal/parse failure (unreadable or unparseable \
   input,\n\
   \                or an analyzer crash).\n\n\
   Options:"

(* The LINT.md rules table is generated from the registry so the docs
   cannot drift: bin/ci.sh diffs this output against the marker-fenced
   section of LINT.md. *)
let markdown_cell s =
  String.concat "\\|" (String.split_on_char '|' s)

let rule_scope_label (r : Rules.t) =
  let scopes = [ Rules.Lib; Rules.Bench; Rules.Bin; Rules.Other ] in
  let on = List.filter r.applies scopes in
  if List.length on = List.length scopes then "everywhere"
  else
    String.concat ", "
      (List.filter_map
         (fun s ->
           if r.applies s then
             Some
               (match s with
               | Rules.Lib -> "`lib/`"
               | Rules.Bench -> "`bench/`"
               | Rules.Bin -> "`bin/`"
               | Rules.Other -> "other")
           else None)
         scopes)

let print_rules_markdown () =
  print_endline "| # | rule id | severity | scope | rationale |";
  print_endline "|---|---------|----------|-------|-----------|";
  List.iteri
    (fun i (r : Rules.t) ->
      Printf.printf "| %d | `%s` | %s | %s | %s |\n" (i + 1) r.id
        (Finding.severity_to_string r.severity)
        (rule_scope_label r) (markdown_cell r.doc))
    Rules.all

let () =
  let json_out = ref None in
  let list_rules = ref false in
  let markdown = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--json",
        Arg.String (fun s -> json_out := Some s),
        "FILE write a JSON report to FILE" );
      ("--rules", Arg.Set list_rules, " list rule ids with rationale and exit");
      ( "--markdown",
        Arg.Set markdown,
        " with --rules: emit the LINT.md rules table (generated; ci diffs \
         it against the docs)" );
      ("--quiet", Arg.Set quiet, " suppress per-finding text output");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    if !markdown then print_rules_markdown ()
    else
      List.iter
        (fun (r : Rules.t) ->
          Printf.printf "%-32s %-8s %s\n" r.id
            (Finding.severity_to_string r.severity)
            r.doc)
        Rules.all;
    exit 0
  end;
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bench"; "bin" ] | ps -> ps
  in
  let timings = ref [] in
  let timed pass f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    timings := (pass, (Unix.gettimeofday () -. t0) *. 1000.) :: !timings;
    r
  in
  match
    let files, units, failures = Callgraph.load paths in
    let passes =
      [
        ( "rules",
          fun () ->
            failures
            @ List.concat_map
                (fun (u : Callgraph.parsed) ->
                  Engine.lint ~mli_exists:(Sys.file_exists (u.path ^ "i")) u)
                units );
        ("race", fun () -> Race.analyze units);
        ("own", fun () -> Own.analyze units);
        ("dim", fun () -> Dim.analyze units);
      ]
    in
    ( files,
      List.sort_uniq Finding.compare
        (List.concat_map (fun (pass, run) -> timed pass run) passes) )
  with
  | exception e ->
    Printf.eprintf "leotp-lint: internal failure: %s\n" (Printexc.to_string e);
    exit 2
  | files, findings ->
    if not !quiet then
      List.iter (fun f -> print_endline (Finding.to_text f)) findings;
    (match !json_out with
    | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (Finding.report_json ~timings:(List.rev !timings) ~files findings))
    | None -> ());
    let errors = Finding.count Finding.Error findings in
    let warnings = Finding.count Finding.Warning findings in
    Printf.printf "leotp-lint: %d file(s), %d error(s), %d warning(s)\n" files
      errors warnings;
    let parse_failures =
      List.exists (fun f -> f.Finding.rule = "parse-error") findings
    in
    exit (if parse_failures then 2 else if errors > 0 then 1 else 0)
