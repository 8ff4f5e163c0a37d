(** Minimal JSON construction and parsing — enough to export and
    audit experiment results without external dependencies.  Output
    is deterministic (fields in insertion order) and properly
    escaped. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  A float prints as [Printf "%.1f"] when it is
    integral and below 1e15 in magnitude, otherwise as ["%.17g"]
    ([nan], [inf] and [-inf] included, as C prints them). *)

val to_string_pretty : t -> string
(** Two-space-indented rendering, with the same scalars. *)

val escape : string -> string
(** JSON string escaping (without the surrounding quotes). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (standard JSON: objects, arrays, strings
    with escapes, numbers, literals; numbers without [.]/[e] parse as
    [Int], others as [Float]).  A [\u] escape decodes to UTF-8; a
    character above U+FFFF must come as a surrogate pair, and an
    unpaired surrogate is an error.  Rejects trailing garbage.  The error
    string carries a byte offset.  Round trip: [of_string (to_string
    t) = Ok t] for any [t] whose floats survive printing. *)
