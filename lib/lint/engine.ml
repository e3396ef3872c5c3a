(* Per-file rules: run every applicable rule of the registry over one
   parsed unit and filter the raw diagnostics through its
   [@leotp.allow] suppressions. *)

let finding_of ~path ~rule ~(severity : Finding.severity)
    ~(loc : Ppxlib.Location.t) message =
  {
    Finding.rule;
    severity;
    file = path;
    line = Callgraph.line loc;
    col = Callgraph.col loc;
    message;
  }

let lint ?mli_exists ({ path; ast; allows } : Callgraph.parsed) =
  let scope = (Callgraph.place path).scope in
  let raw = ref [] in
  List.iter
    (fun (r : Rules.t) ->
      if r.applies scope then
        r.check
          ~emit:(fun ~loc message ->
            raw := (r.id, r.severity, loc, message) :: !raw)
          ast)
    Rules.all;
  let findings =
    List.filter_map
      (fun (rule, severity, loc, message) ->
        if Callgraph.suppressed allows ~rule ~loc then None
        else Some (finding_of ~path ~rule ~severity ~loc message))
      !raw
  in
  (* missing-interface is a file-system property, not an AST one. *)
  let findings =
    match mli_exists with
    | Some false
      when scope = Rules.Lib
           && not (List.mem Rules.missing_interface_id allows.file_level) ->
      {
        Finding.rule = Rules.missing_interface_id;
        severity = Warning;
        file = path;
        line = 1;
        col = 0;
        message =
          "module has no .mli; add one (or a justified \
           [@@@leotp.allow \"missing-interface\"]) so the public \
           surface is explicit";
      }
      :: findings
    | _ -> findings
  in
  let findings =
    List.map
      (fun loc ->
        finding_of ~path ~rule:"malformed-allow" ~severity:Error ~loc
          "malformed [@leotp.allow] payload; expected a single string \
           literal rule id")
      allows.malformed
    @ List.filter_map
        (fun (rule, loc) ->
          if List.mem rule Rules.known_ids then None
          else
            Some
              (finding_of ~path ~rule:"unknown-rule" ~severity:Warning ~loc
                 (Printf.sprintf
                    "[@leotp.allow %S] names no known rule (known: %s)" rule
                    (String.concat ", " Rules.known_ids))))
        allows.ids
    @ findings
  in
  List.sort_uniq Finding.compare findings

let lint_source ~path ?mli_exists contents =
  match Callgraph.parse ~path contents with
  | Error f -> [ f ]
  | Ok u -> lint ?mli_exists u
