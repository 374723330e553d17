(** Terms of conjunctive queries: constants and (untagged) variables.

    Variable tagging as distinguished/existential (the paper's Section 5
    representation) is derived from the query head; see {!Disclosure.Tagged}
    for the tagged form. *)

type t =
  | Const of Relational.Value.t
  | Var of string

val compare : t -> t -> int

val equal : t -> t -> bool

val is_var : t -> bool

val is_const : t -> bool

val var_name : t -> string option

val to_buffer : Buffer.t -> t -> unit
(** Variables print bare; constants print in literal syntax. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
