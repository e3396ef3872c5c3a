exception Bad of string

type t = { buf : string; mutable pos : int; lineno : int }

let create ~lineno buf = { buf; pos = 0; lineno }

let fail_line lineno fmt =
  Printf.ksprintf
    (fun m -> raise (Bad (Printf.sprintf "line %d: %s" lineno m)))
    fmt

let fail cur fmt = fail_line cur.lineno fmt

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

let looking_at cur lit =
  let n = String.length lit in
  cur.pos + n <= String.length cur.buf && String.sub cur.buf cur.pos n = lit

let expect cur lit =
  if looking_at cur lit then cur.pos <- cur.pos + String.length lit
  else fail cur "expected %s at column %d" lit (cur.pos + 1)

let key cur name = expect cur (Printf.sprintf "\"%s\":" name)

(* The longest run of [ok] characters at the cursor, consumed. *)
let span cur ok =
  let start = cur.pos in
  while cur.pos < String.length cur.buf && ok cur.buf.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  String.sub cur.buf start (cur.pos - start)

let is_digit c = c >= '0' && c <= '9'

let number cur ~what =
  match span cur (fun c -> is_digit c || String.contains "+-.eE" c) with
  | "" -> fail cur "expected a number for %S" what
  | s -> (
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> f
    | _ -> fail cur "%S is not a finite number for %S" s what)

let int_field cur ~what =
  match int_of_string_opt (span cur (fun c -> is_digit c || c = '-')) with
  | Some i -> i
  | None -> fail cur "expected an integer for %S" what

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
    if cur.pos >= String.length cur.buf then None
    else begin
      cur.pos <- cur.pos + 1;
      Some cur.buf.[cur.pos - 1]
    end
  in
  let rec go () =
    match next () with
    | None -> fail cur "unterminated string for %S" what
    | Some '"' -> Buffer.contents b
    | Some '\\' -> (
      match next () with
      | None -> fail cur "unterminated escape in %S" what
      | Some (('"' | '\\') as e) -> add e
      | Some e -> fail cur "unsupported escape '\\%c' in %S" e what)
    | Some c when Char.code c < 0x20 -> fail cur "control character in %S" what
    | Some c -> add c
  and add c =
    Buffer.add_char b c;
    go ()
  in
  go ()

let eol cur =
  if cur.pos <> String.length cur.buf then
    fail cur "trailing characters at column %d" (cur.pos + 1)
