(** Strict cursor for the tree's text formats: [TRACE_PATH] traces and
    [bench/baselines.json] line by line, fault schedules and fuzz
    replay specs as one line.

    There is no JSON library in the tree.  Each format is one canonical
    writer's output, so a reader walks its input expecting exact
    literals in order and raises {!Bad} on the first mismatch, naming
    the line of a file and, where it helps, the column; a spec's
    diagnostics name the column. *)

exception Bad of string

type t

val create : ?lineno:int -> string -> t
(** A cursor at the start of line [lineno] (1-based) of a file, or of a
    one-line spec. *)

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Bad}: ["line N: ..."], or ["... at column C"] for a spec. *)

val fail_at : t -> int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail_at c col] is {!fail} naming column [col], for a file line too. *)

val fail_line : int -> ('a, unit, string, 'b) format4 -> 'a

val lines : string -> string list
(** Split on ['\n'], dropping only the empty chunk after a final newline. *)

val protect : (unit -> 'a) -> ('a, string) result
(** Run a reader, turning {!Bad} into [Error]. *)

val escape : string -> string
(** Writer side of {!quoted}: backslash before each quote and backslash.
    Raises [Invalid_argument] on a control character. *)

val column : t -> int
(** 1-based column of the next character. *)

val since : t -> int -> string
(** [since c col] is the text read from column [col] up to the cursor. *)

val looking_at : t -> string -> bool
val at_end : t -> bool

val expect : t -> string -> unit
(** Consume a literal or fail with "expected LIT at column C". *)

val key : t -> string -> unit
(** [key c name] consumes ["name":]. *)

val field : t -> ?sep:string -> string -> (t -> what:string -> 'a) -> 'a
(** [sep] (default [","]), {!key}, then the value. *)

val sep_by : t -> string -> (t -> 'a) -> 'a list
(** One or more items, [sep] between them. *)

val number : t -> what:string -> float
(** A finite number. *)

val int_field : t -> what:string -> int

val natural : t -> what:string -> int
(** Digits only: no sign, base prefix or underscore. *)

val word : t -> what:string -> string
(** A non-empty run of ASCII letters. *)

val bool_field : t -> what:string -> bool

val quoted : t -> what:string -> string
(** A double-quoted string; the only escapes read are a backslash before
    a quote or a backslash. *)

val eol : t -> unit
(** Fail unless the whole input has been consumed. *)
