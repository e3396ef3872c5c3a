(** Emulated-Starlink experiments (paper §V-C): Figs 16-18 and Table II.

    Each run replays a {!Leotp_net.Path_trace} that {!Pathtrace.generate}
    samples from the constellation, the same path model and replay the
    long-horizon trace family uses: Starlink core routes recomputed over
    time (HYPATIA-style, here Dijkstra over the Walker shell); the
    Producer's GSL uplink is the 10 Mbps bottleneck with a handover "V"
    curve and +/-0.5 Mbps random bias; other hops 20 Mbps; PLR 1% on
    GSLs and 0.1% on ISLs; hop delays are distance over the speed of
    light and change with the orbits (link switching drops in-flight
    packets). *)

type pair_result = {
  summary : Common.summary;
  mean_hops : float;  (** over the trace's route records *)
  min_propagation : float;  (** seconds, best route over the run *)
  switches : int;
}

exception No_route of string * string
(** [(src, dst)]: the pair has no route at any sampled instant (a bent
    pipe with no satellite in common view). *)

val run_pair :
  ?quick:bool ->
  ?seed:int ->
  src:string ->
  dst:string ->
  isls:bool ->
  Common.protocol ->
  pair_result
(** One bulk flow from [src] (Producer) to [dst] (Consumer) over the
    pair's path trace: {!Pathtrace.generate} with horizon = the run's
    duration (25 s quick, 100 s full), a 0.25 s step, a 5 s route epoch
    and [seed] (default 42), replayed by
    {!Leotp_net.Dynamic_path.of_trace}.  Raises {!No_route} when the
    trace has no route record. *)

val fig16 : ?quick:bool -> unit -> (string * pair_result) list
(** Beijing-Shanghai without ISLs: LEOTP vs BBR / PCC / Hybla; prints
    OWD and throughput CDuFs. *)

val fig17 : ?quick:bool -> unit -> (string * pair_result) list
(** Beijing-New York with ISLs. *)

val fig18 : ?quick:bool -> unit -> (string * string * float * float) list
(** (pair, protocol, mean OWD s, throughput Mbps) for Beijing-Hong Kong /
    Paris / New York, including 25% Midnode coverage. *)

val table2 : ?quick:bool -> unit -> (string * string * float * float) list
(** Ablation A/B/C/D on the three city pairs: (pair, config, throughput
    Mbps, mean OWD ms). *)
