(** Per-query computation budgets.

    The labeling path sits on NP-complete homomorphism search
    ({!Homomorphism}), so a hostile or pathological query can make a single
    [label] call run for an unbounded time. A budget bounds the work: a fuel
    counter (one unit per elementary search step) and an optional wall-clock
    deadline. Exhaustion raises {!Exhausted}; the fail-closed boundary in
    [Disclosure.Guard] turns that into a typed refusal — the exception is
    never meant to escape the reference monitor.

    The shared {!unlimited} budget makes the guarded entry points free for
    callers that opt out: every [tick] on it is a single load-and-branch. *)

type exhaustion =
  | Fuel
  | Deadline

exception Exhausted of exhaustion

type t

val unlimited : t
(** Never exhausts. Shared; safe to reuse across queries and domains that do
    not mutate it. *)

val create : ?fuel:int -> ?deadline:float -> unit -> t
(** A fresh budget: at most [fuel] elementary steps and at most [deadline]
    seconds from now. The deadline is armed and checked on the {e monotonic}
    clock — a wall-clock step (NTP, manual change) mid-query can neither
    spuriously expire a budget nor keep it alive past its real allowance.
    Omitted components are unbounded; with neither given, the result is
    {!unlimited}.
    @raise Invalid_argument on a negative fuel or deadline. *)

val tick : t -> unit
(** Spend one unit of fuel. The deadline is checked every 128 ticks.
    @raise Exhausted *)

val burn : t -> int -> unit
(** Spend [n] units at once. @raise Exhausted *)

val check_deadline : t -> unit
(** Unconditional clock check (for stage boundaries). @raise Exhausted *)

val remaining_fuel : t -> int option
(** [None] when the budget is unlimited. *)

val exhaust : t -> unit
(** Force the fuel to zero, so the next {!tick} raises. Used by the
    fault-injection harness. @raise Invalid_argument on {!unlimited}. *)
