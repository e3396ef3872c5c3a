(* Every text reader of external input against hostile input: valid
   documents from each writer, mutated byte by byte, must come back as
   [Ok] or as an [Error] that says where reading stopped, never as an
   exception; replay specs round-trip; and the inputs the hand-split
   readers once misread are refused with their located diagnostic. *)

module Cursor = Leotp_util.Cursor
module Rng = Leotp_util.Rng
module Fault = Leotp_sim.Fault
module Path_trace = Leotp_net.Path_trace
module Fuzz = Leotp_scenario.Fuzz
module Baselines = Leotp_scenario.Baselines

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let starts_with prefix s = String.starts_with ~prefix s

(* ------------------------------------------------------------------ *)
(* One valid document per writer, drawn from a seed. *)

let trace_doc rng =
  let hop () =
    {
      Path_trace.delay = Rng.uniform rng 0.0 0.05;
      bw_mbps = Rng.uniform rng 0.5 100.0;
      plr = Rng.uniform rng 0.0 0.1;
      kind = (if Rng.bool rng then Path_trace.Gsl else Path_trace.Isl);
    }
  in
  let records =
    List.init (Rng.int rng 4) (fun i ->
        let event =
          if Rng.int rng 4 = 0 then Path_trace.No_route
          else
            Path_trace.Route
              {
                hops = Array.init (1 + Rng.int rng 3) (fun _ -> hop ());
                handover = Rng.bool rng;
              }
        in
        { Path_trace.time = float_of_int i +. Rng.float rng 0.5; event })
  in
  Path_trace.to_string
    {
      Path_trace.meta =
        {
          seed = Rng.int rng 1000;
          src = "Beijing";
          dst = "New \"York\"";
          isls = Rng.bool rng;
          step = 1.0;
          horizon = Rng.uniform rng 1.0 100.0;
        };
      records;
    }

let fault_doc rng =
  if Rng.int rng 5 = 0 then
    Printf.sprintf "random:%d:%d" (Rng.int rng 1000 - 500) (1 + Rng.int rng 20)
  else
    Fault.to_string
      (Fault.random ~rng ~duration:(Rng.uniform rng 1.0 60.0)
         ~n:(1 + Rng.int rng 8) ())

let protocols =
  "split-cubic" :: "leotp" :: List.map Leotp_tcp.Cc.algo_name Leotp_tcp.Cc.all

let replay_doc rng =
  let protocol = List.nth protocols (Rng.int rng (List.length protocols)) in
  let spec = List.hd (Fuzz.gen ~seed:(Rng.int rng 100_000) 1) in
  Fuzz.replay_to_string ~protocol spec

(* [bench/baselines.json] has no writer in code: this is its layout. *)
let baselines_doc rng =
  let entry i =
    Printf.sprintf
      {|{"id":"fig%d","field":"minor_words_per_packet","better":"%s","baseline":%.17g,"tolerance_pct":%.17g}|}
      i
      (if Rng.bool rng then "lower" else "higher")
      (Rng.uniform rng 1.0 500.0) (Rng.uniform rng 0.0 60.0)
  in
  "[\n" ^ String.concat ",\n" (List.init (1 + Rng.int rng 4) entry) ^ "\n]\n"

(* A reader, its documents, and what a located diagnostic looks like. *)
type reader = {
  name : string;
  doc : Rng.t -> string;
  read : string -> (unit, string) result;
  located : string -> bool;
}

let ignore_ok r = Result.map ignore r
let at_column m = contains m " at column "

let readers =
  [
    {
      name = "TRACE_PATH";
      doc = trace_doc;
      read = (fun s -> ignore_ok (Path_trace.of_string s));
      located = starts_with "line ";
    };
    {
      name = "fault spec";
      doc = fault_doc;
      read = (fun s -> ignore_ok (Fault.spec_of_string s));
      located = (fun m -> at_column m || starts_with "bad fault event \"" m);
    };
    {
      name = "replay spec";
      doc = replay_doc;
      read = (fun s -> ignore_ok (Fuzz.replay_of_string s));
      located =
        (fun m ->
          starts_with "replay spec: " m
          && (at_column m
             || contains m "bad fault event \""
             || contains m " is not "));
    };
    {
      name = "baselines";
      doc = baselines_doc;
      read = (fun s -> ignore_ok (Baselines.of_string s));
      located = starts_with "line ";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Mutations: flip a bit, insert or overwrite a byte, delete one, or
   truncate, at positions drawn as fractions of the current length. *)

type mutation =
  | Flip of int
  | Insert of char
  | Overwrite of char
  | Delete
  | Truncate

let apply s (m, frac) =
  let n = String.length s in
  if n = 0 then s
  else
    let i = frac * n / 1_000_000 in
    let edit f = String.init n (fun j -> if j = i then f s.[j] else s.[j]) in
    match m with
    | Flip bit -> edit (fun c -> Char.chr (Char.code c lxor (1 lsl bit)))
    | Overwrite c -> edit (fun _ -> c)
    | Insert c -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | Delete -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | Truncate -> String.sub s 0 i

let mutation_gen =
  let open QCheck2.Gen in
  (* Bytes the grammars give meaning to, and a few they do not. *)
  let byte =
    oneof
      [
        oneofl
          (List.of_seq (String.to_seq "0123456789.-+eEx_pn@:;=,|{}[]\"\\ \n\ta"));
        char;
      ]
  in
  pair
    (oneof
       [
         map (fun b -> Flip b) (int_bound 7);
         map (fun c -> Insert c) byte;
         map (fun c -> Overwrite c) byte;
         pure Delete;
         pure Truncate;
       ])
    (int_bound 999_999)

let mutation_prop =
  let open QCheck2 in
  Test.make
    ~name:"every reader answers a mutated document with Ok or a located Error"
    ~count:2000
    ~print:(fun (r, seed, ms) ->
      let reader = List.nth readers r in
      Printf.sprintf "%s: %S" reader.name
        (List.fold_left apply (reader.doc (Rng.create ~seed)) ms))
    Gen.(
      triple
        (int_bound (List.length readers - 1))
        (int_bound 1_000_000)
        (list_size (int_range 1 3) mutation_gen))
    (fun (r, seed, ms) ->
      let reader = List.nth readers r in
      let doc = reader.doc (Rng.create ~seed) in
      let mutated = List.fold_left apply doc ms in
      match reader.read mutated with
      | Ok () -> true
      | Error m when reader.located m -> true
      | Error m ->
        Test.fail_reportf "%s: unlocated diagnostic %S" reader.name m
      | exception e ->
        Test.fail_reportf "%s raised %s" reader.name (Printexc.to_string e))

(* Unmutated, every writer's document reads back. *)
let valid_prop =
  let open QCheck2 in
  Test.make ~name:"every writer's document reads back" ~count:400
    Gen.(pair (int_bound (List.length readers - 1)) (int_bound 1_000_000))
    (fun (r, seed) ->
      let reader = List.nth readers r in
      match reader.read (reader.doc (Rng.create ~seed)) with
      | Ok () -> true
      | Error m -> Test.fail_reportf "%s rejected its writer: %s" reader.name m)

let replay_roundtrip_prop =
  let open QCheck2 in
  Test.make ~name:"replay specs round-trip through replay_of_string" ~count:300
    Gen.(pair (int_range (-100_000) 100_000) (oneofl protocols))
    (fun (seed, protocol) ->
      let spec = List.hd (Fuzz.gen ~seed 1) in
      Fuzz.replay_of_string (Fuzz.replay_to_string ~protocol spec)
      = Ok (protocol, spec))

(* ------------------------------------------------------------------ *)
(* What the hand-split readers misread, each now refused where it
   stops. *)

let replay_tail = "bw=10|delay=0.01|plr=0|bytes=100000|dur=5|faults="

let misreads =
  [
    (* A negative hop that the lab would wrap onto another hop. *)
    ( "1@down:hop-3",
      `Fault,
      "expected a non-negative integer for \"hop\" at column 11" );
    (* A hex float read as t = 8, an underscored one as t = 10. *)
    ("0x1p3@down:hop0", `Fault, "expected @ at column 2");
    ("1_0@down:hop0", `Fault, "expected @ at column 2");
    (* Seed 16 with 12 events. *)
    ("random:0x10:1_2", `Fault, "expected : at column 9");
    (* An unknown field after the schedule, ignored. *)
    ( "cc=cubic|seed=1|hops=2|" ^ replay_tail ^ "|typo=3",
      `Replay,
      "replay spec: expected a number for \"time\" at column 73" );
    (* A repeated field, the last one read as 3. *)
    ( "cc=cubic|seed=1|hops=2|hops=0x3|" ^ replay_tail,
      `Replay,
      "replay spec: expected |bw= at column 23" );
    (* Seed 16 over 10 hops. *)
    ( "cc=cubic|seed=0x10|hops=1_0|" ^ replay_tail,
      `Replay,
      "replay spec: expected |hops= at column 16" );
  ]

let test_misread (spec, reader, diagnostic) () =
  let got =
    match reader with
    | `Fault -> ignore_ok (Fault.spec_of_string spec)
    | `Replay -> ignore_ok (Fuzz.replay_of_string spec)
  in
  Alcotest.(check (result unit string)) spec (Error diagnostic) got

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_readers"
    [
      ("mutation", [ qc valid_prop; qc mutation_prop ]);
      ("round-trip", [ qc replay_roundtrip_prop ]);
      ( "misreads",
        List.mapi
          (fun i ((spec, _, _) as case) ->
            Alcotest.test_case
              (Printf.sprintf "%d %s" i spec)
              `Quick (test_misread case))
          misreads );
    ]
