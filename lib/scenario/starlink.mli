(** Emulated-Starlink experiments (paper §V-C).

    Environment per the paper: Starlink core constellation routes
    recomputed over time (HYPATIA-style, here Dijkstra over the Walker
    shell); GSL uplink is the 10 Mbps bottleneck with a handover "V"
    curve and +/-0.5 Mbps random bias; other hops 20 Mbps; PLR 1% on
    GSLs and 0.1% on ISLs; hop delays are distance over the speed of
    light and change with the orbits (link switching drops in-flight
    packets). *)

val other_bw : float
(** Mbps on non-bottleneck (downlink / ISL) hops. *)

(** {2 Path model}

    Shared by the live emulation ({!run_pair}) and the trace-driven
    generator ({!Pathtrace.generate}). *)

type sample = float * [ `Route of Leotp_constellation.Path_service.hop list | `No_route ]
(** A route sample, as {!Leotp_constellation.Path_service.snapshots_with_gaps}
    returns them. *)

val flag_handovers : sample list -> (sample * bool) list
(** Pair each route sample with its handover flag: the route signature
    differs from the last route seen, so reacquisition after an outage
    counts too.  [`No_route] samples are never handovers. *)

val handover_times : (sample * bool) list -> float list

val uplink_mbps :
  rng:Leotp_util.Rng.t -> handovers:float list -> t_end:float -> float -> float
(** The GSL uplink rate (Mbps) at a time in [0, t_end]: 10 Mbps with a
    "V" dip of up to 3 Mbps within +/-2 s of each handover, plus a
    +/-0.5 Mbps bias drawn from [rng] once per second (all draws happen
    up front); never below 1 Mbps. *)

val consumer_first :
  hop:
    (Leotp_constellation.Path_service.hop ->
    delay:float ->
    uplink:bool ->
    plr:float ->
    'h) ->
  Leotp_constellation.Path_service.hop list ->
  'h array
(** Map a route (Producer side first) to hops Consumer side first.  Each
    hop gets its propagation delay, whether it is the Producer's GSL
    uplink (the bottleneck; other hops run at {!other_bw}), and its loss
    rate (1% on GSLs, 0.1% on ISLs). *)

type pair_result = {
  summary : Common.summary;
  mean_hops : float;
  min_propagation : float;  (** seconds, best route over the run *)
  switches : int;
}

val run_pair :
  ?quick:bool ->
  ?seed:int ->
  src:string ->
  dst:string ->
  isls:bool ->
  Common.protocol ->
  pair_result
(** One bulk flow from [src] (Producer) to [dst] (Consumer). *)

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
