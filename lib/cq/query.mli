(** Conjunctive queries [H :- B] (Section 2.3 of the paper).

    [H] is a head atom whose arguments may be variables or constants; [B] is a
    non-empty conjunction of relational atoms. Queries must be {e safe}: every
    head variable also appears in the body. A query with an empty head is a
    boolean query. *)

type t = private {
  name : string;  (** Head predicate name; not semantically significant. *)
  head : Term.t list;
  body : Atom.t list;
}

exception Unsafe of string
(** Raised by {!make} when a head variable does not appear in the body, or the
    body is empty. *)

val make : ?name:string -> head:Term.t list -> body:Atom.t list -> unit -> t
(** @raise Unsafe *)

val head_vars : t -> string list
(** Distinguished variables, in order of first occurrence in the head. *)

val body_vars : t -> string list
(** All body variables, in order of first occurrence. *)

val existential_vars : t -> string list
(** Body variables that do not occur in the head. *)

val vars : t -> string list

val constants : t -> Relational.Value.t list

val head_arity : t -> int

val is_boolean : t -> bool

val is_single_atom : t -> bool

val rename_vars : (string -> string) -> t -> t
(** Applies the renaming to head and body. The renaming must be injective on
    the query's variables for the result to be equivalent. *)

val freshen : suffix:string -> t -> t
(** Appends [suffix] to every variable name; used to rename two queries apart
    before unification. *)

val relations : t -> string list
(** Distinct relation names used in the body, in order of first use. *)

val check_schema : Relational.Schema.t -> t -> (unit, string) result
(** Checks that every body atom refers to a schema relation with the right
    arity. *)

val compare : t -> t -> int
(** Syntactic order (ignores [name]). *)

val equal : t -> t -> bool
(** Syntactic equality up to [name]; see {!Containment.equivalent} for
    semantic equivalence. *)

val pp : Format.formatter -> t -> unit
(** Prints in parseable syntax: [Q(x) :- R(x, y), S(y)]. *)

val to_string : t -> string
