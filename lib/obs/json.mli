(** Minimal JSON tree, writer and parser.

    Self-contained (no external dependency): the writer produces
    RFC 8259 JSON — correct escaping of control characters, quotes and
    backslashes, UTF-8 passthrough for everything else — and the parser
    accepts standard JSON including [\uXXXX] escapes and surrogate
    pairs, so writer output round-trips. Non-finite floats have no JSON
    representation and are written as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Look up a key of an [Obj]; [None] on missing key or non-object. *)
val member : string -> t -> t option

(** Parse one JSON document (surrounding whitespace allowed). *)
val parse : string -> (t, string) result
