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
  | Link_final _ | Rto_fire _ | Ack_processed _ | Fault _ -> Trace.emit ev

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
     7, 8, 9, 10, 14, 3, 14, 1, 'z': the second pair's extra rtt words
     shift its next record's seq and time onto the first pair's next
     record's tag and string. *)
  let p0 = { p with i = [| 1; 2; 1; 2; 3; 0 |] } in
  let p1 = { p with i = [| 1; 2; 3; 4; 5; 0 |] } in
  differ "rtt option tag"
    [
      ack { p0 with rtt = None; f = [| bits 4 5; bits 6 7 |] };
      { Trace.seq = 8; time = bits 9 10; event = Fault { what = "\x0e\x01z" } };
    ]
    [
      ack { p1 with rtt = Some (bits 1 2); f = [| bits 6 7; bits 8 9 |] };
      { Trace.seq = 10; time = bits 14 3; event = Fault { what = "z" } };
    ];
  let t = Trace.create ~capacity:64 () in
  Trace.with_recorder t
    ~clock:(fun () -> 0.25)
    (fun () -> List.iter Trace.emit (events_of p));
  Alcotest.(check string)
    "recorder = digest_records" (Trace.digest t)
    (Trace.digest_records (Trace.records t))

(* ------------------------------------------------------------------ *)
(* The invariant checker: typed fold against the Hashtbl reference *)

(* The reference: the checker before it became a typed fold over flat
   tables, a replay of built records into [Hashtbl]s keyed by name
   strings and key tuples.  Its logic is kept as it was, so the fold's
   verdicts can be compared with it byte for byte. *)
module Reference = struct
  type report = Invariants.report = {
    invariant : string;
    ok : bool;
    detail : string;
  }

  (* Per-link event-stream counters plus the link's own final snapshot. *)
  type link_acc = {
    mutable offered : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable dups : int;
    mutable final :
      (int * int * int * int * int * int) option;
        (* offered, delivered, dropped, dups, queued, in_flight *)
  }

  (* Exact replay of one PIT's event stream: the open-entry table must
     always agree with the pending count the PIT itself advertised. *)
  type pit_acc = {
    open_entries : (int * int * int, float) Hashtbl.t;  (** key -> entry birth *)
    mutable expiry : float;
    mutable first_error : string option;
  }

  type flow_acc = {
    mutable next : int;  (** expected position of the next delivery *)
    mutable completed : int option;
    mutable first_error : string option;
  }

  type t = {
    links : (string, link_acc) Hashtbl.t;
    pits : (string, pit_acc) Hashtbl.t;
    flows : (int * int, flow_acc) Hashtbl.t;
    mutable pit_satisfy_stale : int;  (** satisfies past expiry claiming fresh *)
    mutable cache_peak_over : (string * int * int) option;
    mutable cache_events : int;
    mutable rto_events : int;
    mutable rto_violation : (string * float * float) option;
  }

  let create () =
    {
      links = Hashtbl.create 16;
      pits = Hashtbl.create 8;
      flows = Hashtbl.create 8;
      pit_satisfy_stale = 0;
      cache_peak_over = None;
      cache_events = 0;
      rto_events = 0;
      rto_violation = None;
    }

  let link_acc t name =
    match Hashtbl.find_opt t.links name with
    | Some a -> a
    | None ->
      let a = { offered = 0; delivered = 0; dropped = 0; dups = 0; final = None } in
      Hashtbl.replace t.links name a;
      a

  let pit_acc t name =
    match Hashtbl.find_opt t.pits name with
    | Some a -> a
    | None ->
      let a =
        { open_entries = Hashtbl.create 64; expiry = 0.0; first_error = None }
      in
      Hashtbl.replace t.pits name a;
      a

  let flow_acc t key =
    match Hashtbl.find_opt t.flows key with
    | Some a -> a
    | None ->
      let a = { next = 0; completed = None; first_error = None } in
      Hashtbl.replace t.flows key a;
      a

  let pit_error (a : pit_acc) msg =
    if a.first_error = None then a.first_error <- Some msg

  let check_pending a ~node ~pending =
    if Hashtbl.length a.open_entries <> pending then
      pit_error a
        (Printf.sprintf "%s: advertised %d pending, replay has %d" node pending
           (Hashtbl.length a.open_entries))

  (* Slack on time comparisons, seconds. *)
  let eps = 1e-9

  let sink t (r : Trace.record) =
    match r.Trace.event with
    | Trace.Link_enq { link; _ } ->
      let a = link_acc t link in
      a.offered <- a.offered + 1
    | Trace.Link_drop { link; _ } ->
      let a = link_acc t link in
      a.dropped <- a.dropped + 1
    | Trace.Link_deliver { link; _ } ->
      let a = link_acc t link in
      a.delivered <- a.delivered + 1
    | Trace.Link_dup { link; _ } ->
      let a = link_acc t link in
      a.dups <- a.dups + 1
    | Trace.Link_final { link; offered; delivered; dropped; dups; queued; in_flight }
      ->
      let a = link_acc t link in
      a.final <- Some (offered, delivered, dropped, dups, queued, in_flight)
    | Trace.Pit_register { node; flow; lo; hi; forwarded; expiry; pending } ->
      let a = pit_acc t node in
      a.expiry <- expiry;
      let key = (flow, lo, hi) in
      if forwarded then Hashtbl.replace a.open_entries key r.Trace.time
      else if not (Hashtbl.mem a.open_entries key) then
        pit_error a
          (Printf.sprintf "%s: duplicate-blocked register for absent entry" node);
      check_pending a ~node ~pending
    | Trace.Pit_satisfy { node; flow; lo; hi; fresh; age; pending } ->
      let a = pit_acc t node in
      let key = (flow, lo, hi) in
      if not (Hashtbl.mem a.open_entries key) then
        pit_error a (Printf.sprintf "%s: satisfy for unregistered entry" node)
      else Hashtbl.remove a.open_entries key;
      if fresh && age > a.expiry +. eps then
        t.pit_satisfy_stale <- t.pit_satisfy_stale + 1;
      check_pending a ~node ~pending
    | Trace.Pit_expire { node; flow; lo; hi; pending } ->
      let a = pit_acc t node in
      let key = (flow, lo, hi) in
      if not (Hashtbl.mem a.open_entries key) then
        pit_error a (Printf.sprintf "%s: expire for unregistered entry" node)
      else Hashtbl.remove a.open_entries key;
      check_pending a ~node ~pending
    | Trace.Cache_occupancy { node; used; capacity } ->
      t.cache_events <- t.cache_events + 1;
      if used > capacity && t.cache_peak_over = None then
        t.cache_peak_over <- Some (node, used, capacity)
    | Trace.Deliver { node; flow; pos; len } ->
      let a = flow_acc t (node, flow) in
      if pos <> a.next && a.first_error = None then
        a.first_error <-
          Some
            (Printf.sprintf "node %d flow %d: delivered pos %d, expected %d" node
               flow pos a.next);
      a.next <- max a.next (pos + len)
    | Trace.Complete { node; flow; bytes } ->
      let a = flow_acc t (node, flow) in
      if a.completed <> None && a.first_error = None then
        a.first_error <-
          Some (Printf.sprintf "node %d flow %d: completed twice" node flow);
      if bytes <> a.next && a.first_error = None then
        a.first_error <-
          Some
            (Printf.sprintf
               "node %d flow %d: completed at %d bytes, delivered %d" node flow
               bytes a.next);
      a.completed <- Some bytes
    | Trace.Rto_fire { who; elapsed; floor } ->
      t.rto_events <- t.rto_events + 1;
      if elapsed +. eps < floor && t.rto_violation = None then
        t.rto_violation <- Some (who, elapsed, floor)
    (* Ack_processed / Seg_state feed the differential oracle
       (Leotp_check.Oracle), a separate sink. *)
    | Trace.Ack_processed _ | Trace.Seg_state _ | Trace.Fault _ -> ()

  let sorted_hashtbl_bindings tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let finalize ~now t =
    let pit_report =
      let errors = ref [] in
      let entries = ref 0 in
      List.iter
        (fun (name, (a : pit_acc)) ->
          (match a.first_error with Some e -> errors := e :: !errors | None -> ());
          List.iter
            (fun (_, born) ->
              incr entries;
              if now -. born > a.expiry +. eps then
                errors :=
                  Printf.sprintf "%s: entry leaked past expiry (age %.3f > %.3f)"
                    name (now -. born) a.expiry
                  :: !errors)
            (sorted_hashtbl_bindings a.open_entries))
        (sorted_hashtbl_bindings t.pits);
      if t.pit_satisfy_stale > 0 then
        errors :=
          Printf.sprintf "%d satisfies claimed fresh past expiry"
            t.pit_satisfy_stale
          :: !errors;
      match !errors with
      | [] ->
        {
          invariant = "pit-lifetime";
          ok = true;
          detail =
            Printf.sprintf "%d tables consistent, %d entries open and fresh"
              (Hashtbl.length t.pits) !entries;
        }
      | e :: _ -> { invariant = "pit-lifetime"; ok = false; detail = e }
    in
    let cache_report =
      match t.cache_peak_over with
      | None ->
        {
          invariant = "cache-capacity";
          ok = true;
          detail = Printf.sprintf "%d occupancy samples within capacity" t.cache_events;
        }
      | Some (node, used, cap) ->
        {
          invariant = "cache-capacity";
          ok = false;
          detail = Printf.sprintf "%s: used %d > capacity %d" node used cap;
        }
    in
    let delivery_report =
      let errors =
        List.filter_map
          (fun (_, a) -> a.first_error)
          (sorted_hashtbl_bindings t.flows)
      in
      match errors with
      | [] ->
        {
          invariant = "delivery-order";
          ok = true;
          detail =
            Printf.sprintf "%d (node, flow) streams in-order and exactly-once"
              (Hashtbl.length t.flows);
        }
      | e :: _ -> { invariant = "delivery-order"; ok = false; detail = e }
    in
    let link_report =
      let errors = ref [] in
      List.iter
        (fun (name, a) ->
          match a.final with
          | None ->
            errors := Printf.sprintf "%s: no final accounting event" name :: !errors
          | Some (offered, delivered, dropped, dups, queued, in_flight) ->
            if
              (offered, delivered, dropped, dups)
              <> (a.offered, a.delivered, a.dropped, a.dups)
            then
              errors :=
                Printf.sprintf
                  "%s: stream counts (%d,%d,%d,%d) disagree with link counters (%d,%d,%d,%d)"
                  name a.offered a.delivered a.dropped a.dups offered delivered
                  dropped dups
                :: !errors
            else if offered + dups <> delivered + dropped + queued + in_flight then
              errors :=
                Printf.sprintf
                  "%s: %d offered + %d dup <> %d delivered + %d dropped + %d queued + %d in flight"
                  name offered dups delivered dropped queued in_flight
                :: !errors)
        (sorted_hashtbl_bindings t.links);
      match !errors with
      | [] ->
        {
          invariant = "link-conservation";
          ok = true;
          detail = Printf.sprintf "%d links balanced" (Hashtbl.length t.links);
        }
      | e :: _ -> { invariant = "link-conservation"; ok = false; detail = e }
    in
    let rto_report =
      match t.rto_violation with
      | None ->
        {
          invariant = "rto-floor";
          ok = true;
          detail = Printf.sprintf "%d timeouts at or above the floor" t.rto_events;
        }
      | Some (who, elapsed, floor) ->
        {
          invariant = "rto-floor";
          ok = false;
          detail =
            Printf.sprintf "%s fired after %.6f s, floor %.6f s" who elapsed floor;
        }
    in
    [ pit_report; cache_report; delivery_report; link_report; rto_report ]
end

(* A stream's verdicts through the typed emitters on a fold-only
   recorder whose clock reads each event's time. *)
let verdicts_typed ~now steps =
  let c = Invariants.create () in
  let t = Trace.create ~capacity:1 ~digesting:false () in
  Trace.add_fold t (Invariants.fold c);
  let clock = ref 0.0 in
  Trace.with_recorder t
    ~clock:(fun () -> !clock)
    (fun () ->
      List.iter
        (fun (time, ev) ->
          clock := time;
          emit_typed ev)
        steps);
  Invariants.finalize ~now c

let verdicts_records ~now steps =
  let c = Invariants.create () in
  List.iteri
    (fun seq (time, event) ->
      Trace.fold_record (Invariants.fold c) { Trace.seq; time; event })
    steps;
  Invariants.finalize ~now c

let verdicts_reference ~now steps =
  let r = Reference.create () in
  List.iteri
    (fun seq (time, event) -> Reference.sink r { Trace.seq; time; event })
    steps;
  Reference.finalize ~now r

(* One random checker input: an event kind, a name, a key, an edge
   selector and a roll against the stream's noise. *)
type op = { kind : int; name : int; key : int; a : int; roll : int }

let op_gen =
  let open QCheck2.Gen in
  let+ kind =
    (* PIT-heavy, registers first, so tables fill, grow and lose
       entries from the middle of probe runs. *)
    frequency
      [ (4, return 5); (2, return 6); (2, return 7); (4, int_bound 12) ]
  and+ name = int_bound 2
  and+ key = int_bound 23
  and+ a = int_bound 7
  and+ roll = int_bound 99 in
  { kind; name; key; a; roll }

let link_names = [| "l0"; "l1"; "hop1.fwd" |]
let node_names = [| "m0"; "m1"; "gw" |]

(* Offsets on both sides of the checker's 1e-9 s slack: a PIT age
   [expiry + within] is fresh and [expiry + beyond] is not, a timeout
   after [floor - within] is on time and after [floor - beyond] early. *)
let within = [| -1.0; -0.5e-9; 0.0; 0.5e-9 |]
let beyond = [| 2e-9; 1.0 |]

(* Timed events from ops.  A small model of the links, PITs and
   delivery streams keeps each event consistent, except for an op
   whose roll falls under [noise] (percent): that one breaks its
   invariant (a wrong count, an absent PIT key, a stale fresh satisfy,
   a cache overflow, a gap, a second completion, an early timeout).
   Quiet streams thus pass, and a checker that loses or misplaces
   state turns them into failures.  Satisfies and expires mostly pick
   a key the model holds, registers any of 24 per node, so tables fill,
   grow and lose entries from inside probe runs; every link gets a
   final account at the end. *)
let steps_of ~noise ops =
  let links = Hashtbl.create 4 and pits = Hashtbl.create 4 in
  let streams = Hashtbl.create 4 in
  let steps =
    List.mapi
      (fun i op ->
        let time = 0.25 *. float_of_int (i + 1) in
        let bad = op.roll < noise in
        let off n = if not bad then n else if op.a mod 2 = 0 then n + 1 else n - 1 in
        let link = link_names.(op.name) and node = node_names.(op.name) in
        let o, d, x, u =
          Option.value (Hashtbl.find_opt links link) ~default:(0, 0, 0, 0)
        in
        let keys, expiry =
          Option.value (Hashtbl.find_opt pits node) ~default:([], 0.0)
        in
        let key k = (k / 12, k mod 12 / 2, (k mod 12 / 2) + 1 + (k mod 2)) in
        let rnode = op.name + 1 and rflow = op.key mod 2 in
        let next, completed =
          Option.value
            (Hashtbl.find_opt streams (rnode, rflow))
            ~default:(0, false)
        in
        let register (flow, lo, hi) =
          let present = List.mem (flow, lo, hi) keys in
          let blocked = bad && op.a >= 4 && not present in
          let forwarded = if present then op.a >= 4 else not blocked in
          let expiry = if op.a mod 2 = 0 then 1.0 else 2.5 in
          let keys =
            if forwarded && not present then (flow, lo, hi) :: keys else keys
          in
          Hashtbl.replace pits node (keys, expiry);
          let pending = List.length keys in
          Trace.Pit_register
            {
              node;
              flow;
              lo;
              hi;
              forwarded;
              expiry;
              pending = (if blocked then pending else off pending);
            }
        in
        (* A broken link event goes uncounted, so the final account
           disagrees with the stream. *)
        let count c = if not bad then Hashtbl.replace links link c in
        let event : Trace.event =
          match op.kind with
          | 0 ->
            count (o + 1, d, x, u);
            Link_enq { link; pkt = i; size = 100 }
          | 1 ->
            count (o, d, x + 1, u);
            Link_drop { link; pkt = i; reason = Tail }
          | 2 ->
            count (o, d + 1, x, u);
            Link_deliver { link; pkt = i; size = 100 }
          | 3 ->
            count (o, d, x, u + 1);
            Link_dup { link; pkt = i }
          | 4 ->
            let in_flight = op.a mod 2 in
            Link_final
              {
                link;
                offered = o;
                delivered = d;
                dropped = x;
                dups = u;
                queued = o + u - d - x - in_flight;
                in_flight;
              }
          | (6 | 7) when keys <> [] || bad ->
            let ((flow, lo, hi) as k) =
              if bad && op.a >= 4 || keys = [] then key op.key
              else List.nth keys (op.key mod List.length keys)
            in
            let keys = List.filter (( <> ) k) keys in
            Hashtbl.replace pits node (keys, expiry);
            let pending = List.length keys in
            let pending = if op.a < 4 then off pending else pending in
            if op.kind = 7 then Pit_expire { node; flow; lo; hi; pending }
            else
              let past = op.a mod 3 = 0 in
              let age =
                expiry
                +. if past then beyond.(op.a mod 2) else within.(op.a mod 4)
              in
              Pit_satisfy
                { node; flow; lo; hi; fresh = bad || not past; age; pending }
          | 5 | 6 | 7 -> register (key op.key)
          | 8 ->
            Cache_occupancy
              { node; used = 9 + (op.a mod 2) + Bool.to_int bad; capacity = 10 }
          | 9 ->
            let pos = if bad then next + 100 - (200 * (op.a mod 2)) else next in
            let len = 100 * (op.a mod 2) in
            Hashtbl.replace streams (rnode, rflow) (max next (pos + len), completed);
            Deliver { node = rnode; flow = rflow; pos; len }
          | 10 when bad || not completed ->
            Hashtbl.replace streams (rnode, rflow) (next, true);
            Complete
              {
                node = rnode;
                flow = rflow;
                bytes = (next + if bad && op.a >= 4 then 1 else 0);
              }
          | 11 ->
            let elapsed =
              1.0 -. if bad then beyond.(op.a mod 2) else within.(op.a mod 4)
            in
            Rto_fire { who = node; elapsed; floor = 1.0 }
          | _ ->
            Seg_state { who = node; flow = op.key; seq = 0; len = 1; state = Seg_sent }
        in
        (time, event))
      ops
  in
  let finals =
    List.sort compare (Hashtbl.fold (fun l c acc -> (l, c) :: acc) links [])
    |> List.map (fun (link, (o, d, x, u)) ->
           ( 0.25 *. float_of_int (List.length ops),
             Trace.Link_final
               {
                 link;
                 offered = o;
                 delivered = d;
                 dropped = x;
                 dups = u;
                 queued = o + u - d - x;
                 in_flight = 0;
               } ))
  in
  steps @ finals

(* End-of-run gaps after the last event, on both sides of an entry
   born then outliving a 1.0 or 2.5 s expiry. *)
let final_gaps = [| 0.0; 1.0; 1.0 +. 0.5e-9; 1.0 +. 2e-9; 2.5 +. 2e-9; 10.0 |]

(* Noise in percent per op: quiet streams, a few breaks, many. *)
let stream_gen =
  QCheck2.Gen.(
    triple
      (oneofl [ 0; 0; 0; 1; 5; 30 ])
      (list_size (int_range 0 200) op_gen)
      (int_bound (Array.length final_gaps - 1)))

let now_of (_, ops, g) =
  (0.25 *. float_of_int (List.length ops)) +. final_gaps.(g)

let fold_matches_reference_prop =
  let open QCheck2 in
  Test.make ~name:"invariant fold prints the reference verdicts" ~count:1000
    ~print:(fun ((noise, ops, _) as p) ->
      String.concat "\n"
        (Printf.sprintf "now %.17g" (now_of p)
        :: List.map
             (fun (time, event) ->
               Trace.json_of_record { Trace.seq = 0; time; event })
             (steps_of ~noise ops)))
    stream_gen
    (fun ((noise, ops, _) as p) ->
      let steps = steps_of ~noise ops and now = now_of p in
      let expected = Invariants.to_string (verdicts_reference ~now steps) in
      Invariants.to_string (verdicts_typed ~now steps) = expected
      && Invariants.to_string (verdicts_records ~now steps) = expected)

(* The invariants a planted violation fails, with their details; both
   feeders must print the same verdicts. *)
let failing ?(now = 0.2) steps =
  let typed = verdicts_typed ~now steps in
  Alcotest.(check string)
    "typed emitters = fold_record"
    (Invariants.to_string (verdicts_records ~now steps))
    (Invariants.to_string typed);
  List.filter_map
    (fun (r : Invariants.report) ->
      if r.ok then None else Some (r.invariant, r.detail))
    typed

let check_fails label ?now ~invariant ~detail steps =
  Alcotest.(check (list (pair string string)))
    label
    [ (invariant, detail) ]
    (failing ?now steps)

let at time events = List.map (fun e -> (time, e)) events

(* The checker itself must reject corrupt traces (guards against the
   checker silently passing everything). *)
let test_checker_rejects_bad_trace () =
  check_fails "only delivery-order fails" ~invariant:"delivery-order"
    ~detail:"node 1 flow 1: delivered pos 250, expected 100"
    (at 0.1
       Trace.
         [
           Deliver { node = 1; flow = 1; pos = 0; len = 100 };
           (* gap! *)
           Deliver { node = 1; flow = 1; pos = 250; len = 100 };
         ])

let test_checker_rejects_unbalanced_link () =
  check_fails "conservation fails" ~invariant:"link-conservation"
    ~detail:
      "l: 2 offered + 0 dup <> 1 delivered + 0 dropped + 0 queued + 0 in flight"
    (at 0.1
       Trace.
         [
           Link_enq { link = "l"; pkt = 1; size = 100 };
           Link_enq { link = "l"; pkt = 2; size = 100 };
           Link_deliver { link = "l"; pkt = 1; size = 100 };
           (* pkt 2 vanished: final claims everything was delivered *)
           Link_final
             {
               link = "l";
               offered = 2;
               delivered = 1;
               dropped = 0;
               dups = 0;
               queued = 0;
               in_flight = 0;
             };
         ])

(* One PIT entry of node "m", registered with a 1 s expiry. *)
let register ?(pending = 1) () =
  Trace.Pit_register
    {
      node = "m";
      flow = 1;
      lo = 0;
      hi = 100;
      forwarded = true;
      expiry = 1.0;
      pending;
    }

let satisfy ?(fresh = true) ?(age = 0.1) () =
  Trace.Pit_satisfy
    { node = "m"; flow = 1; lo = 0; hi = 100; fresh; age; pending = 0 }

let test_checker_rejects_pit () =
  let pit label ?now detail steps =
    check_fails label ?now ~invariant:"pit-lifetime" ~detail steps
  in
  (* Unfresh: with no register seen, the table's expiry is still 0. *)
  pit "satisfy of an unregistered entry"
    "m: satisfy for unregistered entry"
    (at 0.1 [ satisfy ~fresh:false () ]);
  pit "expire of an unregistered entry" "m: expire for unregistered entry"
    (at 0.1
       [ Trace.Pit_expire { node = "m"; flow = 1; lo = 0; hi = 100; pending = 0 } ]);
  pit "advertised pending differs from the replay"
    "m: advertised 2 pending, replay has 1"
    (at 0.1 [ register ~pending:2 () ]);
  pit "fresh satisfy past expiry" "1 satisfies claimed fresh past expiry"
    [ (0.1, register ()); (1.6, satisfy ~age:1.5 ()) ];
  pit "entry outlives its expiry" ~now:2.0
    "m: entry leaked past expiry (age 1.900 > 1.000)"
    [ (0.1, register ()) ]

let test_checker_rejects_cache_overflow () =
  check_fails "cache over capacity" ~invariant:"cache-capacity"
    ~detail:"m: used 11 > capacity 10"
    (at 0.1 [ Trace.Cache_occupancy { node = "m"; used = 11; capacity = 10 } ])

let test_checker_rejects_early_rto () =
  check_fails "rto below its floor" ~invariant:"rto-floor"
    ~detail:"tr fired after 0.500000 s, floor 1.000000 s"
    (at 0.1 [ Trace.Rto_fire { who = "tr"; elapsed = 0.5; floor = 1.0 } ])

(* Digesting is allocation-free: a recorder that only digests builds
   no record, so a warm [emit] of a built event and a warm typed emit
   cost nothing; with a sink, what a record costs is the record and the
   emit machinery, never the hash.  No lint sees this path, because
   allocation gated on [Trace.on] is exempt from hot-path-may-alloc. *)
let test_digest_allocation () =
  let all_kinds = Array.of_list (events_of fixed_slots) in
  let n = 10_000 in
  let per_record label ~bound ?(events = all_kinds) emit_one t =
    let words =
      Trace.with_recorder t
        ~clock:(fun () -> 1.25)
        (fun () ->
          (* Twice: the checker's one "completed twice" error is
             formatted in the warm-up. *)
          Array.iter emit_one events;
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
  Alcotest.(check int) "records" ((2 * Array.length all_kinds) + n)
    (Trace.count digest_only);
  per_record "typed, digest only" ~bound:0.0 emit_typed
    (Trace.create ~capacity:1 ());
  let with_sink = Trace.create ~capacity:1 () in
  Trace.add_sink with_sink ignore;
  per_record "emit, with a sink" ~bound:16.0 Trace.emit with_sink;
  (* The invariant checker as the fold: a warm stream of every
     per-packet kind, in which one PIT entry is registered, satisfied,
     registered and expired again, costs nothing with or without the
     digest, and the satisfied entry's age reaches the fold through its
     flat slot, unboxed. *)
  let per_packet =
    Trace.
      [|
        Link_enq { link = "l"; pkt = 1; size = 100 };
        Link_deliver { link = "l"; pkt = 1; size = 100 };
        Link_drop { link = "l"; pkt = 2; reason = Tail };
        Link_dup { link = "l"; pkt = 1 };
        register ();
        satisfy ~age:0.5 ();
        register ();
        Pit_expire { node = "m"; flow = 1; lo = 0; hi = 100; pending = 0 };
        Cache_occupancy { node = "m"; used = 1; capacity = 2 };
        Deliver { node = 1; flow = 1; pos = 0; len = 0 };
        Complete { node = 1; flow = 1; bytes = 0 };
        Seg_state { who = "s"; flow = 1; seq = 0; len = 1; state = Seg_sent };
      |]
  in
  List.iter
    (fun digesting ->
      let c = Invariants.create () in
      let t = Trace.create ~capacity:1 ~digesting () in
      Trace.add_fold t (Invariants.fold c);
      per_record
        (if digesting then "typed, digest and fold" else "typed, fold only")
        ~bound:0.0 ~events:per_packet emit_typed t;
      Alcotest.(check string)
        "every PIT event folded"
        "  pit-lifetime      OK  1 tables consistent, 0 entries open and fresh"
        (Invariants.to_string [ List.hd (Invariants.finalize ~now:1.25 c) ]))
    [ false; true ]

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
          Alcotest.test_case "rejects pit violations" `Quick
            test_checker_rejects_pit;
          Alcotest.test_case "rejects cache overflow" `Quick
            test_checker_rejects_cache_overflow;
          Alcotest.test_case "rejects early rto" `Quick
            test_checker_rejects_early_rto;
          qc fold_matches_reference_prop;
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
