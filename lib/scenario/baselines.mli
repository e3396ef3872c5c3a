(** The perf gate's baselines file ([bench/baselines.json]): a JSON
    array with one entry per line (EXPERIMENTS.md has the schema). *)

type t = {
  id : string;
  field : string;
  higher : bool;  (** higher is better: the band is a floor *)
  base : float;
  tolerance_pct : float;
}

val of_string : string -> (t list, string) result
(** [Error] names the line where reading stopped. *)

val of_file : string -> (t list, string) result
(** {!of_string} of a file, its errors prefixed with the path. *)
