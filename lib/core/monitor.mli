(** The reference monitor (Sections 3.4 and 6.2).

    Inspects each incoming query's disclosure label and answers or refuses it
    so that cumulative disclosure never violates the policy. Per the paper's
    equivalence argument, the monitor never consults query history: it only
    keeps one bit per policy partition recording whether that partition is
    still consistent with everything answered so far (Example 6.3).

    Decisions are structured: a refusal carries a {!Guard.refusal_reason}
    distinguishing the paper's policy refusal from fail-closed refusals
    (resource exhaustion, malformed input, captured faults) added by the
    service layer. Whatever the reason, a refusal leaves the alive mask
    unchanged; only policy refusals bump the refused counter — a guard
    refusal never touches monitor state at all. *)

type decision =
  | Answered
  | Refused of Guard.refusal_reason

type t

type state = {
  alive_mask : int;
  answered_count : int;
  refused_count : int;
}
(** An immutable copy of the monitor's full mutable state, for snapshots and
    bit-identical before/after comparisons. *)

exception Too_many_partitions of int
(** The alive set is one machine word; policies are limited to 62
    partitions (the paper uses at most 5). {!Policy.make} validates this
    earlier with a descriptive [Invalid_argument]; this exception remains as
    the monitor-level backstop. *)

val max_partitions : int

val create : Policy.t -> t

val policy : t -> Policy.t

val submit : t -> Label.t -> decision
(** Answers iff some still-alive partition covers the label; on answer, kills
    every alive partition that does not cover it. Refusals ([Refused Policy])
    leave the alive mask unchanged. *)

val evaluate : t -> Label.t -> int option
(** Pure decision: [Some surviving] (the alive partitions covering the label)
    when the query would be answered, [None] when it would be refused. Never
    mutates — the service layer journals between {!evaluate} and the commit,
    so a crash or journal fault cannot leave the monitor ahead of the log. *)

val commit_answer : t -> surviving:int -> unit
(** Apply an answer decided by {!evaluate}: narrow the alive mask to
    [surviving] and bump the answered counter.
    @raise Invalid_argument if [surviving] is not a subset of the alive
    mask. *)

val commit_refusal : t -> unit
(** Count a policy refusal. The alive mask is untouched. *)

val submit_query : t -> Pipeline.t -> Cq.Query.t -> decision
(** Labels the query with the pipeline, then {!submit}s it. *)

val alive : t -> string list
(** Names of partitions still consistent with the answered history. *)

val alive_mask : t -> int

val answered_count : t -> int

val refused_count : t -> int

val state : t -> state

val state_fields : state -> string list
(** The checkpoint "p"-record field layout: alive mask in lowercase hex,
    then the answered and refused counters in decimal. {!Service.checkpoint}
    and the tiered store's spill file share this codec, so a spilled
    principal's record is byte-identical to its checkpoint record. *)

val state_of_fields : string list -> state option
(** Inverse of {!state_fields}; [None] on the wrong arity or unparsable
    numbers. The result still needs {!restore}'s validation against a
    concrete monitor. *)

val is_pristine : t -> bool
(** Has the monitor never committed anything — alive mask at its initial
    full value and both counters zero? A pristine monitor can be evicted
    without writing any spill record and recreated from the policy alone. *)

val pristine_state : partitions:int -> state
(** The state a freshly created monitor over a policy with [partitions]
    partitions would report.
    @raise Too_many_partitions as {!create} would. *)

val reset : t -> unit
(** Forget the history: all partitions alive again, counters cleared. *)

val restore : t -> state -> unit
(** Overwrite the monitor's mutable state from a snapshot — checkpoint
    recovery in {!Service.recover} uses this to resume from a serialized
    state instead of replaying the whole history.
    @raise Invalid_argument when the snapshot's alive mask has bits outside
    the policy's partitions or a counter is negative (a checkpoint for a
    different policy shape must not restore silently). *)

val is_answered : decision -> bool

val is_refused : decision -> bool

val decision_equal : decision -> decision -> bool

val decision_word : decision -> string
(** The decision column of a journal record, also a trace span's
    [outcome]: ["answered"] or ["refused:<tag>"] ({!Guard.refusal_to_tag}).
    ["answered"] is a constant; a refusal allocates its word. *)

val decision_of_word : string -> (decision, string) result
(** Inverse of {!decision_word} up to the refusal's payload, which the word
    does not carry ({!Guard.refusal_of_tag}). [Error] names an unknown
    decision or refusal tag. *)

val pp_decision : Format.formatter -> decision -> unit
