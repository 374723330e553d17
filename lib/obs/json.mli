(** A minimal JSON tree, printer, and recursive-descent parser.

    The observability layer emits machine-readable artifacts — Chrome
    trace-event files, [serve --stats] documents — and its test suite must
    check that every one of them actually parses. Depending on an external
    JSON package for that would drag a new dependency into the build for a
    format we need maybe forty lines of; this module is those forty lines,
    shared by the exporters (which build a {!t} and print it, so their
    output is well-formed by construction) and the round-trip tests.

    The parser accepts standard JSON (RFC 8259): all escape forms including
    [\uXXXX] (decoded as UTF-8), exponent floats, arbitrarily nested
    structures. Numbers are held as OCaml floats, so integers beyond 2{^53}
    lose precision — fine for counters and durations, not a general-purpose
    guarantee. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. Integral numbers print without a decimal
    point; strings are escaped per RFC 8259. *)

val parse : string -> (t, string) result
(** [Error msg] carries a byte offset. Trailing whitespace is allowed,
    trailing garbage is not. *)

(** {1 Accessors}

    Total lookups for tests and formatters: they return [None] rather than
    raising on shape mismatches. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or a missing key. *)

val to_list : t -> t list option

val to_float : t -> float option
