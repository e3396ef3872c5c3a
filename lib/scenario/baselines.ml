(* [ and ] alone on the first and last lines, one entry per line
   between them, every entry but the last ending with a comma.  Any
   other line is an error, so the gate cannot pass by skipping what it
   cannot read. *)

module Cursor = Leotp_util.Cursor

type t = {
  id : string;
  field : string;
  higher : bool;
  base : float;
  tolerance_pct : float;
}

let parse_entry ~lineno ~last line =
  let cur = Cursor.create ~lineno line in
  let next ?(sep = ",") name read =
    Cursor.key cur name;
    let v = read cur ~what:name in
    Cursor.expect cur sep;
    v
  in
  Cursor.expect cur "{";
  let id = next "id" Cursor.quoted in
  let field = next "field" Cursor.quoted in
  let higher =
    match next "better" Cursor.quoted with
    | "lower" -> false
    | "higher" -> true
    | other ->
      Cursor.fail cur "\"better\" must be \"lower\" or \"higher\", not %S" other
  in
  let base = next "baseline" Cursor.number in
  let tolerance_pct = next ~sep:"}" "tolerance_pct" Cursor.number in
  if base <= 0.0 then Cursor.fail cur "\"baseline\" must be positive";
  if tolerance_pct < 0.0 || (higher && tolerance_pct >= 100.0) then
    Cursor.fail cur "\"tolerance_pct\" must be non-negative (below 100 for a floor)";
  if not last then Cursor.expect cur ",";
  Cursor.eol cur;
  { id; field; higher; base; tolerance_pct }

let of_string text =
  let rec entries lineno acc = function
    | [ "]" ] when acc <> [] -> List.rev acc
    | [] | [ "]" ] ->
      Cursor.fail_line lineno "expected an entry, then ] alone on the last line"
    | line :: rest ->
      let b = parse_entry ~lineno ~last:(rest = [ "]" ]) line in
      if List.exists (fun a -> a.id = b.id && a.field = b.field) acc then
        Cursor.fail_line lineno "duplicate entry for %s %s" b.id b.field;
      entries (lineno + 1) (b :: acc) rest
  in
  Cursor.protect (fun () ->
      match Cursor.lines text with
      | "[" :: rest -> entries 2 [] rest
      | _ -> Cursor.fail_line 1 "expected [ alone on the first line")

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text -> Result.map_error (Printf.sprintf "%s: %s" path) (of_string text)
