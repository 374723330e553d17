(** A shard's bounded FIFO with no thread of its own (flat combining): a
    caller that needs it to move claims it, takes up to [drain] messages and
    runs them as one {e round} outside the mutex. One claim at a time keeps
    queue order and lets the round body run without locks. The bound is the
    overload valve: {!try_push} sheds when the queue is full and no round can
    run on the caller. *)

type 'a t

val create : capacity:int -> drain:int -> metrics:Metrics.t -> 'a t
(** Rounds bump [metrics]' [Combine_rounds]; blocked awaits bump
    [Ticket_waits].
    @raise Invalid_argument when [capacity < 1] or [drain < 1]. *)

val start : 'a t -> ('a list -> unit) -> unit
(** Install the round body (it gets each round's messages in queue order
    and must settle every ticket it is handed) and wake every waiter.
    @raise Invalid_argument when already started. *)

val try_push : 'a t -> 'a -> bool
(** Non-blocking enqueue. On a full queue of a started, unclaimed mailbox
    the caller first runs one round itself. [false] (shed) when closed, or
    full while another caller holds the claim or before {!start}. *)

val push : 'a t -> 'a -> bool
(** {!try_push} for control messages that must not be shed: where that
    sheds, this waits for the next round to end (or for {!start}). [false]
    only once closed. *)

val await : 'a t -> (unit -> bool) -> unit
(** Returns once [ready ()] holds (it must only turn true inside a round),
    running rounds while the mailbox is started, unclaimed and non-empty,
    and otherwise waiting for the current round to end. *)

val poll : 'a t -> (unit -> bool) -> unit
(** {!await} that returns instead of waiting. *)

val finish : 'a t -> unit
(** Close (later pushes fail), wait for any claim to end, then run the
    remaining messages on the caller. A never-started mailbox keeps its
    queue. *)
