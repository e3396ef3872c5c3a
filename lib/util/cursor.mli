(** Strict line cursor for the tree's line-oriented text formats
    ([TRACE_PATH] traces, [bench/baselines.json]).

    There is no JSON library in the tree.  Each format is one canonical
    writer's output, so a reader walks each line expecting exact
    literals in order and raises {!Bad} on the first mismatch, naming
    the line and, where it helps, the column. *)

exception Bad of string
(** ["line N: ..."] diagnostic. *)

type t

val create : lineno:int -> string -> t
(** A cursor at the start of one line; [lineno] is 1-based. *)

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad} prefixed with the cursor's line number. *)

val fail_line : int -> ('a, unit, string, 'b) format4 -> 'a

val lines : string -> string list
(** Split on ['\n'], dropping only the empty chunk after a final newline. *)

val protect : (unit -> 'a) -> ('a, string) result
(** Run a reader, turning {!Bad} into [Error]. *)

val escape : string -> string
(** Writer side of {!quoted}: backslash before each quote and backslash.
    Raises [Invalid_argument] on a control character. *)

val looking_at : t -> string -> bool

val expect : t -> string -> unit
(** Consume a literal or fail with "expected LIT at column C". *)

val key : t -> string -> unit
(** [key c name] consumes ["name":]. *)

val number : t -> what:string -> float
(** A finite number. *)

val int_field : t -> what:string -> int
val bool_field : t -> what:string -> bool

val quoted : t -> what:string -> string
(** A double-quoted string; the only escapes read are a backslash before
    a quote or a backslash. *)

val eol : t -> unit
(** Fail unless the whole line has been consumed. *)
