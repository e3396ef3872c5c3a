(* Print the Fig 19 kernel block of bench/main.ml: every line from
   [let config = ...] up to (not including) [let fig19_tests].  A line
   directive keeps compiler errors pointing at bench/main.ml.  Fails
   loudly when either marker is gone, so a moved kernel breaks the
   benchmark build instead of silently measuring something else. *)

let start_marker = "let config = "
let stop_marker = "let fig19_tests"

let () =
  let path = Sys.argv.(1) in
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
  in
  let starts l = String.starts_with ~prefix:start_marker l in
  let stops l = String.starts_with ~prefix:stop_marker l in
  let rec find_start n = function
    | [] -> None
    | l :: _ as ls when starts l -> Some (n, ls)
    | _ :: rest -> find_start (n + 1) rest
  in
  let rec take acc = function
    | [] -> None
    | l :: _ when stops l -> Some (List.rev acc)
    | l :: rest -> take (l :: acc) rest
  in
  match find_start 1 lines with
  | None ->
    Printf.eprintf "extract: %S not found in %s\n" start_marker path;
    exit 1
  | Some (line, rest) -> (
    match take [] rest with
    | None ->
      Printf.eprintf "extract: %S not found in %s\n" stop_marker path;
      exit 1
    | Some body ->
      Printf.printf "# %d \"bench/main.ml\"\n%s\n" line
        (String.concat "\n" body))
