(** Relational atoms [R(t1, ..., tn)] appearing in query bodies. *)

type t = {
  pred : string;
  args : Term.t list;
}

val make : string -> Term.t list -> t

val arity : t -> int

val vars : t -> string list
(** Variable names in order of first occurrence, without duplicates. *)

val constants : t -> Relational.Value.t list
(** Constants in order of occurrence, without duplicates. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val rename_vars : (string -> string) -> t -> t

val map_terms : (Term.t -> Term.t) -> t -> t

val list_to_buffer : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
(** Appends the elements separated by [", "]. *)

val to_buffer : Buffer.t -> t -> unit
(** Appends the atom in the syntax {!Parser.atom} reads back. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
