(** A tiered principal store: million-principal cumulative-disclosure state
    under a bounded resident set (DESIGN.md §14).

    Per-principal monitor state normally lives fully resident in its shard's
    {!Disclosure.Service}. At ecosystem scale (the paper's Facebook case
    study) that caps the principal population by memory, so this store keeps
    only the {e hot} principals' monitors resident and pushes the cold ones
    down two tiers:

    - {e fresh}: a principal registered through {!register}, or whose
      monitor was pristine when evicted, costs nothing on disk and no
      monitor in memory — it is rebuilt from its shared compiled policy
      ({!Disclosure.Service.policy}) alone;
    - {e spilled}: a dirty monitor's state is written to a per-shard spill
      file in the checkpoint's own record codec
      ({!Disclosure.Monitor.state_fields} framed by {!Disclosure.Journal}),
      CRC'd and versioned, and faulted back in on the principal's next
      touch — one disk read, under the service's [`Fault_in] observation
      stage.

    The contract is bit-identity: decisions, journal bytes, and checkpoint
    bytes are identical to an always-resident service, whatever the
    eviction schedule (the [@store] differential suite proves it, including
    under group commit, fault injection, and standby failover). Fail-closed:
    a spill record that cannot be read back refuses the touching query with
    [Resource (Spill _)] rather than silently treating the principal as
    fresh — forgetting disclosure history would leak.

    The store keys everything by the service's dense principal ids
    ({!Disclosure.Service.find}): where each tracked principal's state
    lives, its spill record's length, its shared policy and its clock bits
    are id-indexed arrays that grow by doubling, and its tier hooks take
    ids. It keeps no string-keyed table of its own.

    The spill file is process-private scratch, not a durability artifact:
    it is reset at creation and on every {!Disclosure.Service.recover}
    (journal replay is the authority on history), committed record by
    record through a {!Disclosure.Journal.Writer} but never fsynced, and
    compacted after checkpoints. Like the service it wraps, a store is
    owned by one domain. *)

type t

type budget =
  | Principals of int  (** Keep at most this many principals resident. *)
  | Bytes of int
      (** Approximate resident-heap budget; resolved to a principal count
          from the measured size of the first resident monitor — its own
          words, not the policy it shares with its peers — plus its name
          and index overhead. *)

val create : budget:budget -> spill:string -> Disclosure.Service.t -> t
(** Wrap [service] with a tiered store, installing its
    {!Disclosure.Service.tier} hooks. [spill] is the per-shard spill file's
    path (created or truncated — stale spill state never survives a
    restart). Principals already registered but never {!track}ed stay
    permanently resident.
    @raise Invalid_argument on a non-positive budget or if the service
    already has a tier. *)

val track : t -> principal:string -> unit
(** Start managing an already-registered, currently resident principal (the
    serving layer's reload and the standby register resident, then hand the
    population to a new store). Evicted monitors are rebuilt from the
    resident monitor's policy, which the service shares among equal
    partition lists — a cold principal costs one word of policy reference.
    Does not enforce the budget; call {!enforce} after tracking.
    @raise Disclosure.Service.Unknown_principal if not resident.
    @raise Invalid_argument if already tracked. *)

val register :
  t -> principal:string -> partitions:(string * Disclosure.Sview.t list) list -> unit
(** Register a principal straight into the fresh tier: its policy is the
    service's shared compiled one ({!Disclosure.Service.policy}), it joins
    the registration order ({!Disclosure.Service.enroll}), and it gets no
    monitor, no clock entry and causes no eviction. Its first query faults
    it in at zero I/O. Registering a million principals thus costs the
    service's name entry and a few array slots each, and never touches the
    resident set.
    @raise Disclosure.Service.Duplicate_principal if already registered.
    @raise Invalid_argument as {!Disclosure.Service.register} does. *)

val enforce : t -> unit
(** Evict (clock/second-chance) until the resident set fits the budget.
    No-op while a group-commit batch is open — the serving layer calls this
    at batch boundaries — and never evicts the principal currently being
    faulted in. A spill-write failure (including an armed {!Faults.Spill}
    fault) aborts that eviction with the principal still resident and its
    state untouched; it never refuses a query. *)

val compact : ?force:bool -> t -> unit
(** Rewrite the spill file keeping only live records (dead ones accumulate
    as spilled principals fault back in). Without [force], a cheap no-op
    until enough records have died. A failure keeps the old file and
    offsets intact. The serving layer calls this after each successful
    checkpoint. *)

val service : t -> Disclosure.Service.t

val budget : t -> budget

val resident : t -> int
(** Principals currently resident. *)

val spilled : t -> int
(** Principals currently represented by a spill record. *)

type stats = {
  stat_resident : int;
  stat_spilled : int;
  stat_fresh : int;  (** Non-resident principals with pristine (zero-I/O) state. *)
  stat_fault_ins : int;  (** Successful fault-ins since creation. *)
  stat_spill_writes : int;  (** Spill records written since creation. *)
  stat_evictions : int;  (** Evictions (pristine drops + spills) since creation. *)
  stat_spill_bytes : int;  (** Current spill-file size in bytes. *)
}

val stats : t -> stats

val sum : stats list -> stats
(** Field-by-field totals, e.g. over the shards of a server. *)

val close : t -> unit
(** Uninstall the tier hooks (the service reverts to always-resident for
    whatever is still resident) and close the spill file's writer and
    reader. Idempotent. *)
