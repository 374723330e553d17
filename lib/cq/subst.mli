(** Substitutions: finite maps from variable names to terms. *)

type t

val empty : t

val is_empty : t -> bool

val find : string -> t -> Term.t option

val bind : string -> Term.t -> t -> t option
(** [bind x t s] extends [s] with [x ↦ t]. Returns [None] if [x] is already
    bound to a different term (substitutions stay functional). *)

val bind_exn : string -> Term.t -> t -> t
(** Like {!bind} but raises [Invalid_argument] on conflict. *)

val of_list : (string * Term.t) list -> t
(** @raise Invalid_argument on conflicting duplicate bindings. *)

val bindings : t -> (string * Term.t) list

val apply_term : t -> Term.t -> Term.t
(** Unbound variables are left unchanged. Application is not recursive: the
    image of a variable is returned as-is. *)

val apply_atom : t -> Atom.t -> Atom.t

val domain : t -> string list

val pp : Format.formatter -> t -> unit
