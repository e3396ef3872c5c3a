(** Versioned, seed-reproducible per-path timelines (TRACE_PATH).

    A trace is the constellation's view of one ground-station pair over a
    long horizon: at every [step] seconds either the current route — one
    record per hop with delay / bandwidth / loss / link kind, plus a
    handover flag when the route signature changed — or an explicit
    outage record when no route exists.  Traces are generated by
    {!Leotp_scenario.Pathtrace} (or imported from external measurements)
    and replayed through {!Dynamic_path.schedule_trace}.

    Wire format (JSONL, one object per line, written canonically so that
    [of_string] ∘ [to_string] is the identity on bytes):
    {v
      {"schema":"TRACE_PATH","version":1,"seed":7,"src":"Beijing",
       "dst":"New York","isls":true,"step":1,"horizon":120}
      {"t":0,"hops":[{"d":0.0021,"bw":10.2,"plr":0.01,"k":"gsl"},...],"ho":false}
      {"t":5,"outage":true}
    v}
    [d] is one-way propagation delay in seconds, [bw] bandwidth in Mbps,
    [plr] the loss probability, [k] the link kind ([gsl]/[isl]); hops are
    listed Consumer side first (the {!Dynamic_path} snapshot
    orientation).  Floats are printed with ["%.17g"] so every value
    round-trips exactly; record times must be strictly increasing.  The
    parser is strict: any unknown field, out-of-range value or version
    mismatch is rejected with a line/field diagnostic. *)

type kind = Gsl | Isl

type hop = {
  delay : float;  (** one-way propagation, seconds *)
  bw_mbps : float;  (** link rate, Mbps *)
  plr : float;  (** random-loss probability *)
  kind : kind;
}

type event =
  | Route of { hops : hop array; handover : bool }
      (** [handover] marks the instants where the route signature changed
          from the previously seen route. *)
  | No_route  (** explicit outage sample *)

type record = { time : float; event : event }

type meta = {
  seed : int;  (** generator seed (also the default replay seed) *)
  src : string;
  dst : string;
  isls : bool;
  step : float;  (** sampling step, seconds; each record covers
                     [\[time, time + step)] *)
  horizon : float;  (** seconds of orbital time covered *)
}

type t = { meta : meta; records : record list }

val to_string : t -> string

val of_string : string -> (t, string) result
(** Strict parse; [Error msg] names the offending line and field. *)

val to_file : t -> string -> unit

val of_file : string -> (t, string) result
(** [Error] also covers unreadable files; its message names the path
    once, then the reason. *)

val route_count : t -> int
val handover_count : t -> int

val outage_intervals : t -> (float * float) list
(** Maximal runs of {!No_route} records as [(start, stop)] windows; a run
    ends at the next route sample's time (or its own last sample plus
    [step] when the trace ends dark). *)

val outage_fraction : t -> float
(** Fraction of samples with no route (0 on an empty trace). *)

val max_hop_count : t -> int

val mean_hop_count : t -> float
(** Over route records only; [nan] when there are none. *)

val min_total_delay : t -> float
(** Smallest end-to-end propagation delay over the route records, seconds
    ([infinity] when there are none): the OWD floor for summaries. *)
