exception Bad of string

type t = { buf : string; mutable pos : int; lineno : int option }

let create ?lineno buf = { buf; pos = 0; lineno }
let bad m = raise (Bad m)

let fail_line lineno fmt =
  Printf.ksprintf (fun m -> bad (Printf.sprintf "line %d: %s" lineno m)) fmt

let column cur = cur.pos + 1

let fail_at cur col fmt =
  let line = Option.fold cur.lineno ~none:"" ~some:(Printf.sprintf "line %d: ") in
  Printf.ksprintf (fun m -> bad (Printf.sprintf "%s%s at column %d" line m col)) fmt

let fail cur fmt =
  match cur.lineno with
  | Some n -> fail_line n fmt
  | None -> fail_at cur (column cur) fmt

let lines s =
  let lines = String.split_on_char '\n' s in
  match List.rev lines with "" :: rev -> List.rev rev | _ -> lines

let protect f = try Ok (f ()) with Bad m -> Error m

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        invalid_arg "Cursor.escape: control character in string field"
      else begin
        if c = '"' || c = '\\' then Buffer.add_char b '\\';
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

let since cur col = String.sub cur.buf (col - 1) (cur.pos - col + 1)

let looking_at cur lit =
  let n = String.length lit in
  cur.pos + n <= String.length cur.buf && String.sub cur.buf cur.pos n = lit

let at_end cur = cur.pos = String.length cur.buf

let expect cur lit =
  if looking_at cur lit then cur.pos <- cur.pos + String.length lit
  else fail_at cur (column cur) "expected %s" lit

let key cur name = expect cur (Printf.sprintf "\"%s\":" name)

let field cur ?(sep = ",") name read =
  expect cur sep;
  key cur name;
  read cur ~what:name

let rec sep_by cur sep item =
  let x = item cur in
  if not (looking_at cur sep) then [ x ]
  else begin
    expect cur sep;
    x :: sep_by cur sep item
  end

(* The longest run of [ok] characters at the cursor, consumed. *)
let span cur ok =
  let start = cur.pos in
  while cur.pos < String.length cur.buf && ok cur.buf.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  String.sub cur.buf start (cur.pos - start)

let is_digit c = c >= '0' && c <= '9'

(* A bad number rewinds to its start, the column a spec's diagnostic
   names. *)
let number cur ~what =
  let start = cur.pos in
  match span cur (fun c -> is_digit c || String.contains "+-.eE" c) with
  | "" -> fail cur "expected a number for %S" what
  | s -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> f
    | _ ->
      cur.pos <- start;
      fail cur "%S is not a finite number for %S" s what)

let integer ok kind cur ~what =
  let start = cur.pos in
  match int_of_string_opt (span cur ok) with
  | Some i -> i
  | None ->
    cur.pos <- start;
    fail cur "expected %s for %S" kind what

let int_field = integer (fun c -> is_digit c || c = '-') "an integer"
let natural = integer is_digit "a non-negative integer"

let word cur ~what =
  match span cur (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) with
  | "" -> fail cur "expected a word for %S" what
  | w -> w

let bool_field cur ~what =
  match List.find_opt (looking_at cur) [ "true"; "false" ] with
  | Some lit ->
    expect cur lit;
    lit = "true"
  | None -> fail cur "expected true or false for %S" what

let quoted cur ~what =
  expect cur "\"";
  let b = Buffer.create 16 in
  let next () =
    cur.pos <- cur.pos + 1;
    cur.buf.[cur.pos - 1]
  in
  let rec go () =
    Buffer.add_string b
      (span cur (fun c -> c <> '"' && c <> '\\' && Char.code c >= 0x20));
    if at_end cur then fail cur "unterminated string for %S" what;
    match next () with
    | '"' -> Buffer.contents b
    | '\\' when at_end cur -> fail cur "unterminated escape in %S" what
    | '\\' -> (
      match next () with
      | ('"' | '\\') as e ->
        Buffer.add_char b e;
        go ()
      | e -> fail cur "unsupported escape '\\%c' in %S" e what)
    | _ -> fail cur "control character in %S" what
  in
  go ()

let eol cur =
  if cur.pos <> String.length cur.buf then
    fail_at cur (column cur) "trailing characters"
