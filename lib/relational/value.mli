(** Atomic values stored in database cells and appearing as constants in
    conjunctive queries.

    The paper's examples use strings ("Jim", "Intern") and integers (meeting
    times); booleans are used by the Facebook case study for flag columns such
    as [is_friend]. *)

type t =
  | Int of int
  | Str of string
  | Bool of bool

val compare : t -> t -> int
(** Total order: [Int _ < Str _ < Bool _], each payload ordered naturally. *)

val equal : t -> t -> bool

val hash : t -> int

val to_buffer : Buffer.t -> t -> unit
(** Appends the value in query-literal syntax: [42], ['Jim'], [true]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Parses a query literal back: digits become [Int], [true]/[false] become
    [Bool], anything else becomes [Str]. Single quotes, if present, are
    stripped. *)
