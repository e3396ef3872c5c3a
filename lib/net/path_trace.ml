type kind = Gsl | Isl
type hop = { delay : float; bw_mbps : float; plr : float; kind : kind }
type event = Route of { hops : hop array; handover : bool } | No_route
type record = { time : float; event : event }

type meta = {
  seed : int;
  src : string;
  dst : string;
  isls : bool;
  step : float;
  horizon : float;
}

type t = { meta : meta; records : record list }

(* Schema version this writer emits and the parser accepts. *)
let version = 1
let schema_name = "TRACE_PATH"

module C = Leotp_util.Cursor

(* ------------------------------------------------------------------ *)
(* Writer.  Canonical layout, fixed key order, "%.17g" floats: parsing
   and re-printing a trace reproduces it byte for byte. *)

let kind_to_string = function Gsl -> "gsl" | Isl -> "isl"

let add_header b m =
  Printf.bprintf b
    "{\"schema\":\"%s\",\"version\":%d,\"seed\":%d,\"src\":\"%s\",\"dst\":\"%s\",\"isls\":%b,\"step\":%.17g,\"horizon\":%.17g}\n"
    schema_name version m.seed (C.escape m.src) (C.escape m.dst) m.isls m.step
    m.horizon

let add_record b r =
  match r.event with
  | No_route -> Printf.bprintf b "{\"t\":%.17g,\"outage\":true}\n" r.time
  | Route { hops; handover } ->
    Printf.bprintf b "{\"t\":%.17g,\"hops\":[" r.time;
    Array.iteri
      (fun i h ->
        if i > 0 then Buffer.add_char b ',';
        Printf.bprintf b "{\"d\":%.17g,\"bw\":%.17g,\"plr\":%.17g,\"k\":\"%s\"}"
          h.delay h.bw_mbps h.plr (kind_to_string h.kind))
      hops;
    Printf.bprintf b "],\"ho\":%b}\n" handover

let to_string t =
  let b = Buffer.create (4096 + (List.length t.records * 96)) in
  add_header b t.meta;
  List.iter (add_record b) t.records;
  Buffer.contents b

let to_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Strict line/field parser over {!Leotp_util.Cursor}: the grammar is the
   canonical writer output, so the cursor expects exact keys in order and
   reports the first mismatch with its line and column. *)

let parse_header line =
  let cur = C.create ~lineno:1 line in
  C.expect cur "{";
  C.key cur "schema";
  let schema = C.quoted cur ~what:"schema" in
  if schema <> schema_name then
    C.fail cur "unknown schema %S (expected %S)" schema schema_name;
  C.expect cur ",";
  C.key cur "version";
  let v = C.int_field cur ~what:"version" in
  if v <> version then
    C.fail cur "unsupported %s version %d (this reader supports %d)"
      schema_name v version;
  C.expect cur ",";
  C.key cur "seed";
  let seed = C.int_field cur ~what:"seed" in
  C.expect cur ",";
  C.key cur "src";
  let src = C.quoted cur ~what:"src" in
  C.expect cur ",";
  C.key cur "dst";
  let dst = C.quoted cur ~what:"dst" in
  C.expect cur ",";
  C.key cur "isls";
  let isls = C.bool_field cur ~what:"isls" in
  C.expect cur ",";
  C.key cur "step";
  let step = C.number cur ~what:"step" in
  if step <= 0.0 then C.fail cur "\"step\" must be positive";
  C.expect cur ",";
  C.key cur "horizon";
  let horizon = C.number cur ~what:"horizon" in
  if horizon < 0.0 then C.fail cur "\"horizon\" must be non-negative";
  C.expect cur "}";
  C.eol cur;
  { seed; src; dst; isls; step; horizon }

let parse_hop cur =
  C.expect cur "{";
  C.key cur "d";
  let delay = C.number cur ~what:"d" in
  if delay < 0.0 then C.fail cur "\"d\" (hop delay) must be non-negative";
  C.expect cur ",";
  C.key cur "bw";
  let bw_mbps = C.number cur ~what:"bw" in
  if bw_mbps <= 0.0 then C.fail cur "\"bw\" (hop bandwidth) must be positive";
  C.expect cur ",";
  C.key cur "plr";
  let plr = C.number cur ~what:"plr" in
  if plr < 0.0 || plr > 1.0 then C.fail cur "\"plr\" must be within [0, 1]";
  C.expect cur ",";
  C.key cur "k";
  let kind =
    match C.quoted cur ~what:"k" with
    | "gsl" -> Gsl
    | "isl" -> Isl
    | other ->
      C.fail cur "unknown link kind %S (expected \"gsl\" or \"isl\")" other
  in
  C.expect cur "}";
  { delay; bw_mbps; plr; kind }

let parse_record ~lineno line =
  let cur = C.create ~lineno line in
  C.expect cur "{";
  C.key cur "t";
  let time = C.number cur ~what:"t" in
  C.expect cur ",";
  if C.looking_at cur "\"outage\"" then begin
    C.key cur "outage";
    C.expect cur "true";
    C.expect cur "}";
    C.eol cur;
    { time; event = No_route }
  end
  else begin
    C.key cur "hops";
    C.expect cur "[";
    if C.looking_at cur "]" then C.fail cur "\"hops\" must not be empty";
    let rec hops acc =
      let h = parse_hop cur in
      if C.looking_at cur "," then begin
        C.expect cur ",";
        hops (h :: acc)
      end
      else begin
        C.expect cur "]";
        List.rev (h :: acc)
      end
    in
    let hs = hops [] in
    C.expect cur ",";
    C.key cur "ho";
    let handover = C.bool_field cur ~what:"ho" in
    C.expect cur "}";
    C.eol cur;
    { time; event = Route { hops = Array.of_list hs; handover } }
  end

let of_string s =
  match C.lines s with
  | [] -> Error "line 1: empty trace"
  | header :: rest ->
    C.protect (fun () ->
        let meta = parse_header header in
        let _, records =
          List.fold_left
            (fun (lineno, acc) line ->
              let r = parse_record ~lineno line in
              (match acc with
              | prev :: _ ->
                if r.time <= prev.time then
                  C.fail_line lineno
                    "record times must be strictly increasing (%.17g after \
                     %.17g)"
                    r.time prev.time
              | [] ->
                if r.time < 0.0 then
                  C.fail_line lineno "record time must be >= 0");
              (lineno + 1, r :: acc))
            (2, []) rest
        in
        { meta; records = List.rev records })

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Derived statistics. *)

let route_count t =
  List.fold_left
    (fun acc r -> match r.event with Route _ -> acc + 1 | No_route -> acc)
    0 t.records

let handover_times t =
  List.filter_map
    (fun r ->
      match r.event with
      | Route { handover = true; _ } -> Some r.time
      | Route _ | No_route -> None)
    t.records

let handover_count t = List.length (handover_times t)

let outage_intervals t =
  (* [run_start] is the first dark sample of the current run; a run is
     closed by the next route sample (or by trace end, plus one step). *)
  let rec go run_start last_dark acc = function
    | [] -> (
      match run_start with
      | Some a -> List.rev ((a, last_dark +. t.meta.step) :: acc)
      | None -> List.rev acc)
    | r :: rest -> (
      match (r.event, run_start) with
      | No_route, None -> go (Some r.time) r.time acc rest
      | No_route, Some _ -> go run_start r.time acc rest
      | Route _, Some a -> go None 0.0 ((a, r.time) :: acc) rest
      | Route _, None -> go None 0.0 acc rest)
  in
  go None 0.0 [] t.records

let outage_fraction t =
  match t.records with
  | [] -> 0.0
  | _ ->
    let dark =
      List.fold_left
        (fun acc r ->
          match r.event with No_route -> acc + 1 | Route _ -> acc)
        0 t.records
    in
    float_of_int dark /. float_of_int (List.length t.records)

let max_hop_count t =
  List.fold_left
    (fun acc r ->
      match r.event with
      | Route { hops; _ } -> max acc (Array.length hops)
      | No_route -> acc)
    0 t.records

let mean_hop_count t =
  let n, total =
    List.fold_left
      (fun (n, total) r ->
        match r.event with
        | Route { hops; _ } -> (n + 1, total + Array.length hops)
        | No_route -> (n, total))
      (0, 0) t.records
  in
  if n = 0 then Float.nan else float_of_int total /. float_of_int n

let min_total_delay t =
  List.fold_left
    (fun acc r ->
      match r.event with
      | Route { hops; _ } ->
        Float.min acc
          (Array.fold_left (fun s (h : hop) -> s +. h.delay) 0.0 hops)
      | No_route -> acc)
    Float.infinity t.records
