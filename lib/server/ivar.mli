(** A write-once cell: the server's completion ticket. Reading a ticket runs
    the rounds of the shard mailbox that fills it ({!Mailbox}). *)

type 'a t

val create : ?home:_ Mailbox.t -> unit -> 'a t
(** An empty ticket, filled by a round of [home]. Without [home], {!read}
    must follow the fill (single-threaded tests). *)

val create_filled : 'a -> 'a t
(** Already-resolved ticket — used for decisions made without reaching a
    shard (overload shedding). *)

val fill : 'a t -> 'a -> unit
(** @raise Invalid_argument when already filled. *)

val try_fill : 'a t -> 'a -> bool
(** [false] when already filled (cell unchanged). Readers wake when the
    filling round ends. *)

val read : 'a t -> 'a
(** {!Mailbox.await} on the home shard until filled.
    @raise Invalid_argument on an empty ticket with no home. *)

val peek : 'a t -> 'a option
(** Never blocks: {!Mailbox.poll} on the home shard, then the value. [None]
    before the shard starts or while another caller holds its claim. *)
