(** A small populated instance of the Facebook-like schema, for the examples
    and the end-to-end tests: the current user ['me'], two friends, one friend
    of a friend, one stranger, plus pages, likes, photos, albums, events and
    checkins. *)

val database : Relational.Database.t

val user_row : uid:string -> is_friend:bool -> Relational.Tuple.t
(** A deterministic synthetic [User] tuple for the given uid (each attribute
    derived from the uid), with the [is_friend] flag set as requested. *)

