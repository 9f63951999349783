(** A minimal JSON tree with zero dependencies: the repo's one JSON
    codec. The printer always emits valid JSON — floats carry a decimal
    point or exponent (so masking tools can find them), and non-finite
    floats become [null].

    The parser reads input from outside (sockets, files) and is total:
    every string yields [Ok] or an [Error] naming the byte offset. It
    accepts RFC 8259 JSON, with [\uXXXX] surrogate pairs combined into
    one UTF-8 scalar and lone halves rejected, nested up to 512 levels.
    It is lenient in three ways: raw control characters in strings are
    kept; a number is any run of digits, signs, ['.'], ['e'] and ['E']
    that [int_of_string] or [float_of_string] reads (an [int] overflow
    becomes a [Float]); and duplicate keys are kept in order. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** [to_string ?pretty v] prints [v]; [pretty] (default [false]) indents
    with two spaces. Object keys keep their construction order. *)
val to_string : ?pretty:bool -> t -> string

(** [escape_string b s] appends [s] to [b] as a quoted JSON string;
    control characters are escaped, other bytes are copied. *)
val escape_string : Buffer.t -> string -> unit

(** [of_string s] parses one JSON value (surrounding whitespace allowed).
    Numbers without ['.'], ['e'] or ['E'] parse as [Int]. *)
val of_string : string -> (t, string) result

(** [member k v] — the value under key [k] when [v] is an [Obj]. *)
val member : string -> t -> t option

(** Coercions; [float_value] accepts both [Int] and [Float]. *)
val float_value : t -> float option

val int_value : t -> int option
val string_value : t -> string option
val list_value : t -> t list option
