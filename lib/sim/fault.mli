(** Deterministic fault injection: seeded, serializable schedules of
    link flaps, degradations (loss / bandwidth / duplication /
    reordering bursts) and midnode crash-restarts, fired at exact
    simulated times through the engine's timer queue.

    This module only knows times and abstract targets; the scenario
    layer resolves targets onto concrete links and midnodes via the
    [apply] callback of {!install} (the sim library sits below the
    network model and cannot name its types).

    Spec syntax (one event per [;]-separated item):
    {v
      <time>@down:hop<i>            take hop i's duplex link down (flush)
      <time>@up:hop<i>              bring it back
      <time>@plr:hop<i>=<p>         set random-corruption probability
      <time>@bw:hop<i>=<mbps>       set bandwidth (both directions)
      <time>@dup:hop<i>=<p>         duplicate delivered packets w.p. p
      <time>@reorder:hop<i>=<p>,<jitter_s>  extra-delay reordering
      <time>@crash:mid<k>           midnode loses cache/PIT/flow state
      <time>@restart:mid<k>         midnode resumes with cold state
    v} *)

type target = Hop of int | Mid of int

type action =
  | Link_down of target
  | Link_up of target
  | Set_plr of target * float
  | Set_bw_mbps of target * float
  | Set_dup of target * float
  | Set_reorder of target * float * float  (** probability, jitter seconds *)
  | Crash of target
  | Restart of target

type event = { time : float; action : action }
type schedule = event list

val event_to_string : event -> string

val to_string : schedule -> string
(** Canonical [;]-joined form; floats printed with ["%.17g"] so
    [of_string (to_string s)] round-trips exactly. *)

val of_string : string -> (schedule, string) result
(** Parse a spec.  [Error msg] names the first offending item, including
    one the simulator cannot mean: a time that is not finite and >= 0, a
    probability outside [0, 1], a bandwidth that is not finite and > 0,
    or a reorder jitter that is not finite and >= 0. *)

val random :
  rng:Leotp_util.Rng.t ->
  duration:float ->
  ?hops:int ->
  n:int ->
  unit ->
  schedule
(** At least [n] events (paired so every down/crash/degradation gets a
    matching recovery), with onsets in [0.05, 0.7] of [duration] so a
    transfer can still complete.  Deterministic in [rng].  Default
    [hops] 4; crashes target [mid0], and bandwidth dips restore to
    20 Mbps. *)

val install : Engine.t -> apply:(event -> unit) -> schedule -> unit
(** Schedule every event on the engine; [apply] runs at the event's
    simulated time. *)
