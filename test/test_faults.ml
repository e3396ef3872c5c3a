(* Fault-injection subsystem: schedule round-trips, crash / flap recovery
   of the LEOTP engines, invariant checking under randomized fault
   schedules, and bit-identical trace digests across runs and across
   runner parallelism. *)

module Fault = Leotp_sim.Fault
module Trace = Leotp_net.Trace
module Common = Leotp_scenario.Common
module Invariants = Leotp_scenario.Invariants
module Runner = Leotp_scenario.Runner

let hops4 () = Common.uniform_hops ~n:4 (Common.link ~bw:20.0 ~delay:0.01 ())
let leotp = Common.Leotp Leotp.Config.default

let assert_invariants label reports =
  if not (Invariants.all_ok reports) then
    Alcotest.failf "%s:\n%s" label (Invariants.to_string reports)

(* ------------------------------------------------------------------ *)
(* Schedule serialization *)

let test_spec_parse () =
  let spec = "1.5@down:hop2;2@up:hop2;3@plr:hop0=0.05;4@crash:mid1" in
  match Fault.of_string spec with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok sched ->
    Alcotest.(check int) "events" 4 (List.length sched);
    let ev = List.hd sched in
    Alcotest.(check (float 1e-12)) "time" 1.5 ev.Fault.time;
    (match ev.Fault.action with
    | Fault.Link_down (Fault.Hop 2) -> ()
    | _ -> Alcotest.fail "expected down:hop2");
    (match (List.nth sched 3).Fault.action with
    | Fault.Crash (Fault.Mid 1) -> ()
    | _ -> Alcotest.fail "expected crash:mid1")

let test_spec_errors () =
  List.iter
    (fun bad ->
      match Fault.of_string bad with
      | Ok _ -> Alcotest.failf "expected parse error for %S" bad
      | Error _ -> ())
    [
      "nonsense";
      "1.0@frobnicate:hop1";
      "1.0@down:gateway3";
      "x@down:hop1";
      "1.0@plr:hop1";  (* missing argument *)
      "1.0@down:hop1=3";  (* unexpected argument *)
      (* well-formed, but nothing the simulator can mean *)
      "nan@plr:hop0=0.1";
      "1@plr:hop0=2";
      "1@bw:hop1=-5";
      "1@reorder:hop0=0.5,-1";
      "1e400@down:hop2";
    ]

let spec_roundtrip_prop =
  let open QCheck2 in
  Test.make ~name:"fault spec round-trips through to_string/of_string"
    ~count:100
    Gen.(pair (int_range 0 10_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Leotp_util.Rng.create ~seed in
      let sched = Fault.random ~rng ~duration:60.0 ~n () in
      List.length sched >= n
      && Fault.of_string (Fault.to_string sched) = Ok sched)

let random_schedule_sorted_prop =
  let open QCheck2 in
  Test.make ~name:"random schedules are sorted and within the run" ~count:100
    Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Leotp_util.Rng.create ~seed in
      let duration = 30.0 in
      let sched = Fault.random ~rng ~duration ~n:12 () in
      let times = List.map (fun e -> e.Fault.time) sched in
      List.for_all (fun t -> t >= 0.0 && t <= duration) times
      && List.sort compare times = times)

(* ------------------------------------------------------------------ *)
(* Recovery scenarios *)

(* A midnode crash mid-transfer loses the cache, PIT and per-flow soft
   state; the consumer's end-to-end TR path must still complete the
   fixed transfer, and every invariant must hold across the crash. *)
let test_crash_mid_transfer () =
  let faults =
    match Fault.of_string "2.0@crash:mid1;6.0@restart:mid1" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let summary, reports =
    Common.run_faulted ~bytes:(4 * 1024 * 1024) ~duration:40.0 ~warmup:0.0
      ~faults ~hops:(hops4 ()) leotp
  in
  assert_invariants "crash mid-transfer" reports;
  (match summary.Common.completion_time with
  | Some t ->
    if t <= 0.0 then Alcotest.failf "nonsense completion time %g" t
  | None -> Alcotest.fail "transfer did not complete after midnode crash");
  Alcotest.(check bool)
    "crash forced retransmissions" true
    (summary.Common.retransmissions >= 0)

(* Reference run without the crash: the faulted transfer completes too,
   just later (never earlier than the fault-free one). *)
let test_crash_costs_time () =
  let bytes = 4 * 1024 * 1024 in
  let clean, clean_reports =
    Common.run_faulted ~bytes ~duration:40.0 ~warmup:0.0 ~hops:(hops4 ())
      leotp
  in
  assert_invariants "clean reference" clean_reports;
  let faults =
    match Fault.of_string "1.0@crash:mid1;8.0@restart:mid1" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let faulted, reports =
    Common.run_faulted ~bytes ~duration:40.0 ~warmup:0.0 ~faults
      ~hops:(hops4 ()) leotp
  in
  assert_invariants "crash cost" reports;
  match (clean.Common.completion_time, faulted.Common.completion_time) with
  | Some c, Some f ->
    if f +. 1e-9 < c then
      Alcotest.failf "crashed run finished earlier (%g) than clean run (%g)" f c
  | _ -> Alcotest.fail "both runs should complete"

(* Link flap during the transfer (the Fig 13 handover shape): traffic
   stops while the hop is down and resumes after it comes back up. *)
let test_link_flap_recovery () =
  let faults =
    match Fault.of_string "5.0@down:hop2;6.5@up:hop2" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let summary, reports =
    Common.run_faulted ~duration:20.0 ~warmup:0.0 ~faults ~hops:(hops4 ())
      leotp
  in
  assert_invariants "link flap" reports;
  let delivered ~lo ~hi =
    Leotp_util.Timeseries.window_sum summary.Common.delivery ~lo ~hi
  in
  Alcotest.(check bool)
    "delivery before the flap" true
    (delivered ~lo:0.0 ~hi:5.0 > 0.0);
  (* Recovery: the post-repair window moves at least as many bytes as a
     starved link would; concretely, something must arrive. *)
  Alcotest.(check bool)
    "delivery resumes after repair" true
    (delivered ~lo:7.0 ~hi:20.0 > 0.0);
  Alcotest.(check bool)
    "downtime throttles delivery" true
    (delivered ~lo:5.0 ~hi:6.5 < delivered ~lo:7.0 ~hi:8.5 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Invariants under randomized schedules *)

let test_invariants_random_schedule () =
  let rng = Leotp_util.Rng.create ~seed:1234 in
  let duration = 25.0 in
  let faults = Fault.random ~rng ~duration ~n:100 () in
  Alcotest.(check bool) "at least 100 events" true (List.length faults >= 100);
  let _summary, reports =
    Common.run_faulted ~duration ~warmup:0.0 ~faults ~hops:(hops4 ()) leotp
  in
  assert_invariants "random 100-event schedule" reports

(* The invariant checker itself must reject corrupt traces (guards
   against the checker silently passing everything). *)
let test_checker_rejects_bad_trace () =
  let t = Invariants.create () in
  let feed seq event = Invariants.sink t { Trace.seq; time = 0.1; event } in
  feed 0 (Trace.Deliver { node = 1; flow = 1; pos = 0; len = 100 });
  feed 1 (Trace.Deliver { node = 1; flow = 1; pos = 250; len = 100 });
  (* gap! *)
  let reports = Invariants.finalize ~now:0.2 t in
  if Invariants.all_ok reports then
    Alcotest.fail "checker accepted an out-of-order delivery";
  let bad =
    List.filter (fun r -> not r.Invariants.ok) reports
    |> List.map (fun r -> r.Invariants.invariant)
  in
  Alcotest.(check (list string)) "only delivery-order fails"
    [ "delivery-order" ] bad

let test_checker_rejects_unbalanced_link () =
  let t = Invariants.create () in
  let feed seq event = Invariants.sink t { Trace.seq; time = 0.1; event } in
  feed 0 (Trace.Link_enq { link = "l"; pkt = 1; size = 100 });
  feed 1 (Trace.Link_enq { link = "l"; pkt = 2; size = 100 });
  feed 2 (Trace.Link_deliver { link = "l"; pkt = 1; size = 100 });
  (* pkt 2 vanished: final claims everything was delivered *)
  feed 3
    (Trace.Link_final
       {
         link = "l";
         offered = 2;
         delivered = 1;
         dropped = 0;
         dups = 0;
         queued = 0;
         in_flight = 0;
       });
  let reports = Invariants.finalize ~now:0.2 t in
  let bad =
    List.filter (fun r -> not r.Invariants.ok) reports
    |> List.map (fun r -> r.Invariants.invariant)
  in
  Alcotest.(check (list string)) "conservation fails"
    [ "link-conservation" ] bad

(* ------------------------------------------------------------------ *)
(* Determinism: digests across repeated runs and across --jobs *)

let digest_of_run seed =
  let rng = Leotp_util.Rng.create ~seed in
  let faults = Fault.random ~rng ~duration:12.0 ~n:10 () in
  let trace = Trace.create ~capacity:1 () in
  let _summary, reports =
    Common.run_faulted ~duration:12.0 ~warmup:0.0 ~faults ~trace
      ~hops:(hops4 ()) leotp
  in
  assert_invariants (Printf.sprintf "digest run seed %d" seed) reports;
  Trace.digest trace

let test_digest_replay_identical () =
  let d1 = digest_of_run 77 and d2 = digest_of_run 77 in
  Alcotest.(check string) "same seed, same digest" d1 d2;
  let d3 = digest_of_run 78 in
  Alcotest.(check bool) "different seed, different digest" true (d1 <> d3)

let test_digest_across_jobs () =
  let njobs =
    match
      Option.bind (Sys.getenv_opt "LEOTP_TEST_JOBS") int_of_string_opt
    with
    | Some n when n >= 2 -> n
    | _ -> 4
  in
  let seeds = [ 11; 22; 33; 44 ] in
  let run () = Runner.map (List.map (fun s () -> digest_of_run s) seeds) in
  Runner.set_jobs 1;
  let sequential = run () in
  Runner.set_jobs njobs;
  let parallel = run () in
  Runner.set_jobs 1;
  Alcotest.(check (list string))
    (Printf.sprintf "jobs 1 = jobs %d" njobs)
    sequential parallel

(* ------------------------------------------------------------------ *)
(* Digest: a witness of every field, allocation-free per record *)

(* Field values shared by one event of every constructor.  Each
   constructor reads a slot at most once, so changing one slot changes at
   most one field of each record. *)
type slots = {
  seq : int;
  time : float;
  s : string array;  (** 3 *)
  i : int array;  (** 6 *)
  f : float array;  (** 2 *)
  flag : bool;
  reason : Trace.drop_reason;
  state : Trace.seg_state;
  sacks : (int * int) list;
  rtt : float option;
}

let events_of p =
  let s = p.s and i = p.i and f = p.f in
  Trace.
    [
      Link_enq { link = s.(0); pkt = i.(0); size = i.(1) };
      Link_drop { link = s.(0); pkt = i.(0); reason = p.reason };
      Link_deliver { link = s.(0); pkt = i.(0); size = i.(1) };
      Link_dup { link = s.(0); pkt = i.(0) };
      Link_final
        {
          link = s.(0);
          offered = i.(0);
          delivered = i.(1);
          dropped = i.(2);
          dups = i.(3);
          queued = i.(4);
          in_flight = i.(5);
        };
      Pit_register
        {
          node = s.(0);
          flow = i.(0);
          lo = i.(1);
          hi = i.(2);
          forwarded = p.flag;
          expiry = f.(0);
          pending = i.(3);
        };
      Pit_satisfy
        {
          node = s.(0);
          flow = i.(0);
          lo = i.(1);
          hi = i.(2);
          fresh = p.flag;
          age = f.(0);
          pending = i.(3);
        };
      Pit_expire
        { node = s.(0); flow = i.(0); lo = i.(1); hi = i.(2); pending = i.(3) };
      Cache_occupancy { node = s.(0); used = i.(0); capacity = i.(1) };
      Deliver { node = i.(0); flow = i.(1); pos = i.(2); len = i.(3) };
      Complete { node = i.(0); flow = i.(1); bytes = i.(2) };
      Rto_fire { who = s.(0); elapsed = f.(0); floor = f.(1) };
      Ack_processed
        {
          who = s.(0);
          flow = i.(0);
          cc = s.(1);
          phase = s.(2);
          cum_ack = i.(1);
          sacks = p.sacks;
          rtt = p.rtt;
          snd_una = i.(2);
          inflight = i.(3);
          lost_pending = i.(4);
          cwnd = f.(0);
          rto = f.(1);
        };
      Seg_state
        {
          who = s.(0);
          flow = i.(0);
          seq = i.(1);
          len = i.(2);
          state = p.state;
        };
      Fault { what = s.(0) };
      Note { what = s.(0) };
    ]

let records_of p =
  List.map
    (fun event -> { Trace.seq = p.seq; time = p.time; event })
    (events_of p)

let slots_gen_of ~str ~num ~fl =
  let open QCheck2.Gen in
  let+ seq = nat
  and+ time = fl
  and+ s = array_size (return 3) str
  and+ i = array_size (return 6) num
  and+ f = array_size (return 2) fl
  and+ flag = bool
  and+ reason = oneofl Trace.[ Tail; Error; Flush; Down ]
  and+ state = oneofl Trace.[ Seg_sent; Seg_retx; Seg_lost ]
  and+ sacks = small_list (pair num num)
  and+ rtt = option fl in
  { seq; time; s; i; f; flag; reason; state; sacks; rtt }

let slots_gen =
  let open QCheck2.Gen in
  slots_gen_of
    ~str:(string_size ~gen:printable (int_range 0 4))
    ~num:(oneof [ small_signed_int; int ])
    ~fl:(oneof [ oneofl [ 0.0; -0.0; 1.0 ]; float_range (-1e6) 1e6 ])

(* Field values at the encodings' edges: empty and non-ASCII strings,
   negative and extreme ints, signed zeros, NaN and infinities. *)
let edge_slots_gen =
  let open QCheck2.Gen in
  slots_gen_of
    ~str:
      (oneof
         [
           oneofl [ ""; "\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "\x00\xff" ];
           string_size ~gen:char (int_range 0 4);
         ])
    ~num:(oneof [ oneofl [ 0; -1; max_int; min_int ]; small_signed_int; int ])
    ~fl:
      (oneof
         [
           oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity ];
           float;
         ])

(* Every way to change one slot: ints by their low and top bits, floats
   by their sign (0.0 -> -0.0) and lowest mantissa bit, strings by
   length and by a byte moved from [phase] onto [cc], lists by length
   and content, options by tag and value. *)
let one_slot_changes p =
  let each a change =
    List.concat
      (List.init (Array.length a) (fun k ->
           List.map
             (fun v ->
               let a = Array.copy a in
               a.(k) <- v;
               a)
             (change a.(k))))
  in
  let ints x = [ x + 1; x lxor min_int ] in
  let floats x = [ Float.neg x; Float.succ x ] in
  let moved_byte =
    match p.s with
    | [| who; cc; phase |] when phase <> "" ->
      let n = String.length phase in
      [
        {
          p with
          s = [| who; cc ^ String.sub phase 0 1; String.sub phase 1 (n - 1) |];
        };
      ]
    | _ -> []
  in
  List.concat
    [
      List.map (fun seq -> { p with seq }) (ints p.seq);
      List.map (fun time -> { p with time }) (floats p.time);
      List.map (fun s -> { p with s }) (each p.s (fun x -> [ x ^ "x" ]));
      moved_byte;
      List.map (fun i -> { p with i }) (each p.i ints);
      List.map (fun f -> { p with f }) (each p.f floats);
      [ { p with flag = not p.flag } ];
      List.map
        (fun reason -> { p with reason })
        Trace.[ Tail; Error; Flush; Down ];
      List.map
        (fun state -> { p with state })
        Trace.[ Seg_sent; Seg_retx; Seg_lost ];
      [
        { p with sacks = (0, 0) :: p.sacks };
        { p with sacks = List.map (fun (lo, hi) -> (lo, hi + 1)) p.sacks };
        { p with rtt = None };
        { p with rtt = Some 0.0 };
      ];
      List.map
        (fun r -> { p with rtt = Some r })
        (Option.fold ~none:[] ~some:floats p.rtt);
    ]

(* A PIT entry registered at 0.0: its age at [now] is [now -. 0.0], which
   is [now] bit for bit, -0.0 and nan included. *)
let zero_stamp = [| 0.0 |]

(* Each event through its kind's typed emitter; [Trace.emit] for the
   kinds that have none. *)
let emit_typed (ev : Trace.event) =
  match ev with
  | Link_enq { link; pkt; size } -> Trace.link_enq ~link ~pkt ~size
  | Link_drop { link; pkt; reason } -> Trace.link_drop ~link ~pkt ~reason
  | Link_deliver { link; pkt; size } -> Trace.link_deliver ~link ~pkt ~size
  | Link_dup { link; pkt } -> Trace.link_dup ~link ~pkt
  | Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
    Trace.pit_register ~node ~flow ~lo ~hi ~forwarded ~expiry ~pending
  | Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
    Trace.pit_satisfy ~node ~flow ~lo ~hi ~fresh ~now:age ~stamps:zero_stamp
      ~slot:0 ~pending
  | Pit_expire { node; flow; lo; hi; pending } ->
    Trace.pit_expire ~node ~flow ~lo ~hi ~pending
  | Cache_occupancy { node; used; capacity } ->
    Trace.cache_occupancy ~node ~used ~capacity
  | Deliver { node; flow; pos; len } -> Trace.deliver ~node ~flow ~pos ~len
  | Complete { node; flow; bytes } -> Trace.complete ~node ~flow ~bytes
  | Seg_state { who; flow; seq; len; state } ->
    Trace.seg_state ~who ~flow ~seq ~len ~state
  | Link_final _ | Rto_fire _ | Ack_processed _ | Fault _ | Note _ ->
    Trace.emit ev

(* Bit-exact equality: structural, but telling 0.0 from -0.0. *)
let same_bits a b =
  Marshal.to_string a [ Marshal.No_sharing ]
  = Marshal.to_string b [ Marshal.No_sharing ]

let digest1 r = Trace.digest_records [ r ]

let digest_field_sensitivity_prop =
  let open QCheck2 in
  Test.make ~name:"digest changes iff one record field changes" ~count:200
    ~print:(fun p ->
      String.concat "\n" (List.map Trace.json_of_record (records_of p)))
    slots_gen
    (fun p ->
      let rs = records_of p in
      let tags_distinct =
        List.length (List.sort_uniq compare (List.map digest1 rs))
        = List.length rs
      in
      tags_distinct
      && List.for_all
           (fun p' ->
             List.for_all2
               (fun r r' ->
                 let same = same_bits r r' in
                 (digest1 r = digest1 r') = same
                 && (same
                    || Trace.digest_records [ r; r' ]
                       <> Trace.digest_records [ r'; r ]))
               rs (records_of p'))
           (one_slot_changes p))

let fixed_slots =
  {
    seq = 0;
    time = 0.0;
    s = [| "hop1.fwd"; "ab"; "c" |];
    i = [| 1; 2; 3; 4; 5; 6 |];
    f = [| 0.0; 1.5 |];
    flag = true;
    reason = Trace.Tail;
    state = Trace.Seg_retx;
    sacks = [ (1, 2); (4, 5); (7, 9) ];
    rtt = Some 0.05;
  }

(* A sink-free one-slot recorder digests without building records, a
   recorder with a sink builds every one: fed the same events, one
   through the typed emitters and one through [emit], they must agree
   with each other and with the records the second keeps.  A third
   recorder with a sink takes the typed emitters too and must keep
   exactly the events they were given. *)
let typed_emit_prop =
  let open QCheck2 in
  Test.make ~name:"typed emitters digest as emit" ~count:200
    ~print:(fun steps ->
      String.concat "\n"
        (List.map
           (fun (time, event) ->
             Trace.json_of_record { Trace.seq = 0; time; event })
           steps))
    Gen.(
      list_size (int_range 1 40)
        (let+ p = edge_slots_gen
         and+ k = int_bound (List.length (events_of fixed_slots) - 1) in
         (p.time, List.nth (events_of p) k)))
    (fun steps ->
      let run t emit_one =
        let now = ref 0.0 in
        Trace.with_recorder t
          ~clock:(fun () -> !now)
          (fun () ->
            List.iter
              (fun (time, ev) ->
                now := time;
                emit_one ev)
              steps)
      in
      let keeping () =
        let t = Trace.create ~capacity:(List.length steps) () in
        Trace.add_sink t ignore;
        t
      in
      let lean = Trace.create ~capacity:1 () and full = keeping () in
      let typed = keeping () in
      run lean emit_typed;
      run full Trace.emit;
      run typed emit_typed;
      Trace.digest lean = Trace.digest full
      && Trace.digest full = Trace.digest_records (Trace.records full)
      && Trace.count lean = Trace.count full
      && Trace.records lean = []
      && same_bits
           (List.map
              (fun (r : Trace.record) -> (r.time, r.event))
              (Trace.records typed))
           steps)

(* A float from the two 32-bit halves of its bits. *)
let bits hi lo =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

(* The encodings a sloppy hash would confuse, pinned; and the recorder's
   incremental digest agrees with the pure one over the same records. *)
let test_digest_pinned_pairs () =
  let ack p =
    List.find
      (fun (r : Trace.record) ->
        match r.Trace.event with Trace.Ack_processed _ -> true | _ -> false)
      (records_of p)
  in
  let p = fixed_slots in
  let differ label a b =
    if Trace.digest_records a = Trace.digest_records b then
      Alcotest.failf "%s: same digest" label
  in
  differ "time 0.0 vs -0.0" [ ack p ] [ ack { p with time = -0.0 } ];
  differ "cwnd 0.0 vs -0.0" [ ack p ] [ ack { p with f = [| -0.0; 1.5 |] } ];
  differ "byte moved between cc and phase" [ ack p ]
    [ ack { p with s = [| "hop1.fwd"; "a"; "bc" |] } ];
  differ "sacks [] vs [(0,0)]"
    [ ack { p with sacks = [] } ]
    [ ack { p with sacks = [ (0, 0) ] } ];
  differ "rtt None vs Some 0.0"
    [ ack { p with rtt = None } ]
    [ ack { p with rtt = Some 0.0 } ];
  differ "seq" [ ack p ] [ ack { p with seq = 1 } ];
  differ "time" [ ack p ] [ ack { p with time = 1e-9 } ];
  let a = ack p and b = ack { p with seq = 1 } in
  differ "swapped order" [ a; b ] [ b; a ];
  (* Without the sacks length both would feed ..., 1, 7, 0, ... *)
  differ "sacks length"
    [ ack { p with sacks = []; rtt = Some (bits 7 0) } ]
    [ ack { p with sacks = [ (1, 7) ]; rtt = None } ];
  (* Without the rtt option tag both streams would end 1, 2, 3, 4, 5, 6,
     7, 8, 9, 10, 15, 3, 15, 1, 'z': the second pair's extra rtt words
     shift its next record's seq and time onto the first pair's next
     record's tag and string. *)
  let p0 = { p with i = [| 1; 2; 1; 2; 3; 0 |] } in
  let p1 = { p with i = [| 1; 2; 3; 4; 5; 0 |] } in
  differ "rtt option tag"
    [
      ack { p0 with rtt = None; f = [| bits 4 5; bits 6 7 |] };
      { Trace.seq = 8; time = bits 9 10; event = Note { what = "\x0f\x01z" } };
    ]
    [
      ack { p1 with rtt = Some (bits 1 2); f = [| bits 6 7; bits 8 9 |] };
      { Trace.seq = 10; time = bits 15 3; event = Note { what = "z" } };
    ];
  let t = Trace.create ~capacity:64 () in
  Trace.with_recorder t
    ~clock:(fun () -> 0.25)
    (fun () -> List.iter Trace.emit (events_of p));
  Alcotest.(check string)
    "recorder = digest_records" (Trace.digest t)
    (Trace.digest_records (Trace.records t))

(* Digesting is allocation-free: a recorder that only digests builds
   no record, so a warm [emit] of a built event and a warm typed emit
   cost nothing; with a sink, what a record costs is the record and the
   emit machinery, never the hash.  No lint sees this path, because
   allocation gated on [Trace.on] is exempt from hot-path-may-alloc. *)
let test_digest_allocation () =
  let events = Array.of_list (events_of fixed_slots) in
  let n = 10_000 in
  let per_record label ~bound emit_one t =
    let words =
      Trace.with_recorder t
        ~clock:(fun () -> 1.25)
        (fun () ->
          Array.iter emit_one events;
          let w0 = Gc.minor_words () in
          for k = 0 to n - 1 do
            emit_one events.(k mod Array.length events)
          done;
          Gc.minor_words () -. w0)
    in
    let per_record = words /. float_of_int n in
    if per_record > bound then
      Alcotest.failf "%s: %.4f minor words per record (bound %.0f)" label
        per_record bound
  in
  let digest_only = Trace.create ~capacity:1 () in
  per_record "emit, digest only" ~bound:0.0 Trace.emit digest_only;
  Alcotest.(check int) "records" (Array.length events + n)
    (Trace.count digest_only);
  per_record "typed, digest only" ~bound:0.0 emit_typed
    (Trace.create ~capacity:1 ());
  let with_sink = Trace.create ~capacity:1 () in
  Trace.add_sink with_sink ignore;
  per_record "emit, with a sink" ~bound:16.0 Trace.emit with_sink

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "leotp_faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "parse errors" `Quick test_spec_errors;
          qc spec_roundtrip_prop;
          qc random_schedule_sorted_prop;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash mid-transfer" `Quick
            test_crash_mid_transfer;
          Alcotest.test_case "crash costs time" `Quick test_crash_costs_time;
          Alcotest.test_case "link flap" `Quick test_link_flap_recovery;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "random 100-event schedule" `Quick
            test_invariants_random_schedule;
          Alcotest.test_case "rejects bad delivery" `Quick
            test_checker_rejects_bad_trace;
          Alcotest.test_case "rejects unbalanced link" `Quick
            test_checker_rejects_unbalanced_link;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay digest" `Quick test_digest_replay_identical;
          Alcotest.test_case "jobs 1 vs 4" `Quick test_digest_across_jobs;
          qc digest_field_sensitivity_prop;
          Alcotest.test_case "digest pinned pairs" `Quick
            test_digest_pinned_pairs;
          qc typed_emit_prop;
          Alcotest.test_case "digest allocation" `Quick test_digest_allocation;
        ] );
    ]
