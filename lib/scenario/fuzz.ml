module Fault = Leotp_sim.Fault
module Trace = Leotp_net.Trace
module Rng = Leotp_util.Rng

type spec = {
  seed : int;
  hops : int;
  flows : int;
  bw_mbps : float;
  delay : float;
  plr : float;
  bytes : int;
  duration : float;
  faults : Fault.schedule;
}

type failure = {
  protocol : string;
  spec : spec;
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

let replay_to_string ~protocol s =
  Printf.sprintf
    "cc=%s|seed=%d|hops=%d|flows=%d|bw=%.17g|delay=%.17g|plr=%.17g|bytes=%d|dur=%.17g|faults=%s"
    protocol s.seed s.hops s.flows s.bw_mbps s.delay s.plr s.bytes s.duration
    (Fault.to_string s.faults)

(* One cursor reads the whole spec, fields in the writer's order, so a
   bad value inside the schedule is located in the spec too. *)
let replay_of_string s =
  let module C = Leotp_util.Cursor in
  let cur = C.create s in
  (* [|name=value]; a value the simulator cannot mean is refused with
     its own text. *)
  let field name read ~must valid =
    C.expect cur ("|" ^ name ^ "=");
    let at = C.column cur in
    let v = read cur ~what:name in
    if not (valid v) then
      raise (C.Bad (Printf.sprintf "%s=%s is not %s" name (C.since cur at) must));
    v
  in
  let count name = field name C.natural ~must:">= 1" (fun n -> n >= 1) in
  C.protect (fun () ->
      C.expect cur "cc=";
      let protocol = String.concat "-" (C.sep_by cur "-" (C.word ~what:"cc")) in
      C.expect cur "|seed=";
      let seed = C.int_field cur ~what:"seed" in
      let hops = count "hops" in
      (* [flows=] postdates the first replay specs; absent means 1. *)
      let flows = if C.looking_at cur "|flows=" then count "flows" else 1 in
      let bw_mbps = field "bw" C.number ~must:"finite and > 0" (fun b -> b > 0.0) in
      let delay = field "delay" C.number ~must:"finite and >= 0" (fun d -> d >= 0.0) in
      let plr =
        field "plr" C.number ~must:"a probability in [0, 1]" (fun p ->
            p >= 0.0 && p <= 1.0)
      in
      let bytes = count "bytes" in
      let duration = field "dur" C.number ~must:"finite and > 0" (fun d -> d > 0.0) in
      C.expect cur "|faults=";
      let faults = Fault.read cur in
      (protocol, { seed; hops; flows; bw_mbps; delay; plr; bytes; duration; faults }))
  |> Result.map_error (( ^ ) "replay spec: ")

let replay s =
  Result.bind (replay_of_string s) (fun (name, spec) ->
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
