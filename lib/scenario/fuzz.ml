(* Seeded scenario fuzzer: random chain topologies, loss rates and fault
   schedules, each run under LEOTP and every TCP congestion-control
   variant with the differential oracle (Leotp_check) and the scenario
   invariant checker attached.  Failing cases are shrunk to a minimal
   replayable spec.

   Everything is deterministic in the root seed; jobs go through
   {!Runner.map} so [--jobs N] parallelizes case x protocol cells
   without changing results. *)

module Fault = Leotp_sim.Fault
module Trace = Leotp_net.Trace
module Rng = Leotp_util.Rng

type spec = {
  seed : int;
  hops : int;
  flows : int;
      (** 1 = single flow over a chain; >1 = concurrent flows sharing a
          dumbbell bottleneck (interleaved-flow oracle traces) *)
  bw_mbps : float;
  delay : float;  (** per-hop one-way, seconds *)
  plr : float;
  bytes : int;
  duration : float;
  faults : Fault.schedule;
}

type failure = {
  protocol : string;
  spec : spec;  (** shrunk when [shrink_runs > 0] *)
  problems : string list;
  shrink_runs : int;
}

type outcome = {
  runs : int;
  oracle_acks : int;
  failures : failure list;
}

(* Protocols under test: LEOTP plus every TCP variant.  LEOTP emits no
   sender-oracle events but exercises the PIT/cache/delivery invariants
   under the same fault schedules. *)
let protocols () =
  ("leotp", Common.Leotp Leotp.Config.default)
  :: List.map
       (fun a -> (Leotp_tcp.Cc.algo_name a, Common.Tcp a))
       Leotp_tcp.Cc.all

let gen_spec ~rng ~seed =
  let duration = 30.0 in
  let hops = 1 + Rng.int rng 5 in
  let n_faults = Rng.int rng 4 in
  (* A third of the cases interleave 2-8 concurrent flows through a
     shared bottleneck so the sender oracle sees multi-flow traces. *)
  let flows = if Rng.int rng 3 = 0 then 2 + Rng.int rng 7 else 1 in
  {
    seed;
    hops;
    flows;
    bw_mbps = Rng.uniform rng 2.0 40.0;
    delay = Rng.uniform rng 0.001 0.04;
    plr = (if Rng.bool rng then 0.0 else Rng.uniform rng 0.0 0.05);
    bytes = 50_000 + Rng.int rng 950_000;
    duration;
    faults =
      (if n_faults = 0 then []
       else
         Fault.random
           ~rng:(Rng.substream rng "faults")
           ~duration ~hops ~n:n_faults ());
  }

let gen ~seed n =
  let rng = Rng.create ~seed in
  List.init n (fun i ->
      gen_spec ~rng:(Rng.substream rng (Printf.sprintf "case%d" i)) ~seed:(seed + i))

let max_problems = 5

(* One simulation under full observation; returns the combined oracle
   divergences and invariant failures (empty = clean). *)
let run_one spec (protocol : Common.protocol) =
  let trace = Trace.create ~capacity:1 ~digesting:false () in
  let oracle = Leotp_check.Oracle.create ~mss:Leotp_tcp.Wire.default_mss () in
  Leotp_check.Oracle.attach oracle trace;
  let reports = ref [] in
  let hop =
    Common.link ~plr:spec.plr ~bw:spec.bw_mbps ~delay:spec.delay ()
  in
  (if spec.flows <= 1 then
     ignore
       (Common.run_chain ~seed:spec.seed ~bytes:spec.bytes
          ~duration:spec.duration ~warmup:0.0 ~faults:spec.faults ~trace
          ~on_reports:(fun r -> reports := r)
          ~hops:(Common.uniform_hops ~n:spec.hops hop)
          protocol)
   else
     (* Concurrent flows through a shared bottleneck; each flow starts
        one second after the previous so slow-start phases overlap
        established ones in the trace. *)
     let access = Common.link ~bw:(spec.bw_mbps *. 4.0) ~delay:spec.delay () in
     ignore
       (Common.run_flows_dumbbell ~seed:spec.seed ~bytes:spec.bytes
          ~duration:spec.duration ~faults:spec.faults ~trace
          ~on_reports:(fun r -> reports := r)
          ~access_delays:(List.init spec.flows (fun _ -> spec.delay))
          ~bottleneck:hop ~access
          ~starts:(List.init spec.flows float_of_int)
          protocol));
  let divs = Leotp_check.Oracle.divergences oracle in
  let cap l =
    let n = List.length l in
    if n <= max_problems then l
    else
      List.filteri (fun i _ -> i < max_problems) l
      @ [ Printf.sprintf "... and %d more" (n - max_problems) ]
  in
  let invariant_problems =
    List.filter_map
      (fun (r : Invariants.report) ->
        if r.Invariants.ok then None
        else Some (Printf.sprintf "invariant %s: %s" r.Invariants.invariant r.Invariants.detail))
      !reports
  in
  ( cap (List.map Leotp_check.Oracle.divergence_to_string divs)
    @ invariant_problems,
    Leotp_check.Oracle.acks oracle )

(* --- shrinking --------------------------------------------------------- *)

let shrink_candidates spec =
  let without_fault =
    List.mapi
      (fun i _ ->
        { spec with faults = List.filteri (fun j _ -> j <> i) spec.faults })
      spec.faults
  in
  without_fault
  @ (if spec.flows > 1 then [ { spec with flows = 1 } ] else [])
  @ (if spec.flows > 2 then [ { spec with flows = spec.flows - 1 } ] else [])
  @ (if spec.plr > 0.0 then [ { spec with plr = 0.0 } ] else [])
  @ (if spec.bytes >= 100_000 then [ { spec with bytes = spec.bytes / 2 } ]
     else [])
  @ (if spec.hops > 1 then [ { spec with hops = spec.hops - 1 } ] else [])

let max_shrink_runs = 60

(* Greedy descent: take the first simpler spec that still fails, repeat. *)
let shrink spec protocol =
  let runs = ref 0 in
  let fails s =
    incr runs;
    fst (run_one s protocol) <> []
  in
  let rec go spec =
    if !runs >= max_shrink_runs then spec
    else
      match List.find_opt fails (shrink_candidates spec) with
      | Some simpler -> go simpler
      | None -> spec
  in
  let shrunk = go spec in
  (shrunk, !runs)

(* --- replay specs ------------------------------------------------------ *)

let replay_to_string ~protocol spec =
  String.concat "|"
    [
      "cc=" ^ protocol;
      Printf.sprintf "seed=%d" spec.seed;
      Printf.sprintf "hops=%d" spec.hops;
      Printf.sprintf "flows=%d" spec.flows;
      Printf.sprintf "bw=%.17g" spec.bw_mbps;
      Printf.sprintf "delay=%.17g" spec.delay;
      Printf.sprintf "plr=%.17g" spec.plr;
      Printf.sprintf "bytes=%d" spec.bytes;
      Printf.sprintf "dur=%.17g" spec.duration;
      "faults=" ^ Fault.to_string spec.faults;
    ]

let replay_of_string s =
  let ( let* ) = Result.bind in
  let field kv =
    match String.index_opt kv '=' with
    | Some i ->
      Ok (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
    | None -> Error (Printf.sprintf "replay spec: %S is not key=value" kv)
  in
  let* fields =
    List.fold_left
      (fun acc kv ->
        let* acc = acc in
        let* f = field kv in
        Ok (f :: acc))
      (Ok [])
      (String.split_on_char '|' s)
  in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "replay spec: missing %s=" k)
  in
  (* A value the simulator cannot mean is refused like a malformed one. *)
  let num k conv ~what valid =
    let* v = get k in
    match conv v with
    | Some x when valid x -> Ok x
    | Some _ -> Error (Printf.sprintf "replay spec: %s=%s is not %s" k v what)
    | None -> Error (Printf.sprintf "replay spec: bad %s=%s" k v)
  in
  let count k = num k int_of_string_opt ~what:">= 1" (fun n -> n >= 1) in
  let real k ~what valid =
    num k float_of_string_opt ~what (fun x -> Float.is_finite x && valid x)
  in
  let* protocol = get "cc" in
  let* seed = num "seed" int_of_string_opt ~what:"an integer" (fun _ -> true) in
  let* hops = count "hops" in
  (* [flows=] postdates the first replay specs; absent means 1. *)
  let* flows = if List.mem_assoc "flows" fields then count "flows" else Ok 1 in
  let* bw_mbps = real "bw" ~what:"finite and > 0" (fun b -> b > 0.0) in
  let* delay = real "delay" ~what:"finite and >= 0" (fun d -> d >= 0.0) in
  let* plr =
    real "plr" ~what:"a probability in [0, 1]" (fun p -> p >= 0.0 && p <= 1.0)
  in
  let* bytes = count "bytes" in
  let* duration = real "dur" ~what:"finite and > 0" (fun d -> d > 0.0) in
  let* fault_spec = get "faults" in
  let* faults = Fault.of_string fault_spec in
  Ok
    ( protocol,
      { seed; hops; flows; bw_mbps; delay; plr; bytes; duration; faults } )

let replay s =
  match replay_of_string s with
  | Error e -> Error e
  | Ok (name, spec) -> (
    match Common.protocol_of_name name with
    | None -> Error (Printf.sprintf "replay spec: unknown protocol %S" name)
    | Some protocol when spec.flows > 1 && not (Common.runs_on_dumbbell protocol)
      ->
      Error
        (Printf.sprintf
           "replay spec: cc=%s has no dumbbell form, so flows=%d is not \
            replayable (flows=1 runs it on a chain)"
           name spec.flows)
    | Some protocol -> Ok (name, spec, fst (run_one spec protocol)))

(* --- top-level sweep --------------------------------------------------- *)

let run ~seed ~cases () =
  let specs = gen ~seed cases in
  let cells =
    List.concat_map
      (fun spec -> List.map (fun (name, p) -> (name, p, spec)) (protocols ()))
      specs
  in
  let outcomes =
    Runner.map
      (List.map (fun (name, p, spec) () -> (name, spec, run_one spec p)) cells)
  in
  let oracle_acks =
    List.fold_left (fun acc (_, _, (_, acks)) -> acc + acks) 0 outcomes
  in
  let failures =
    List.filter_map
      (fun (name, spec, (problems, _)) ->
        if problems = [] then None
        else
          (* Re-run the shrunk spec so the reported problems match it. *)
          let shrunk, shrink_runs, problems =
            match Common.protocol_of_name name with
            | Some p ->
              let s, r = shrink spec p in
              (s, r, fst (run_one s p))
            | None -> (spec, 0, problems)
          in
          Some
            { protocol = name; spec = shrunk; problems; shrink_runs })
      outcomes
  in
  { runs = List.length cells; oracle_acks; failures }
