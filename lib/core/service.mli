(** A multi-principal disclosure-control service — the deployment of the
    paper's Figure 2: a shared labeling pipeline plus one reference monitor
    per principal (app), each enforcing its own policy.

    Registration interns each principal once, to a dense id in
    registration order ([0], [1], …). One [name -> id] table is the
    service's only string-keyed structure; names and monitor slots live in
    id-indexed arrays that start small and grow by doubling. Ids are never
    reused: registration order is a principal's identity in
    {!principals}, {!snapshot} and {!checkpoint}.

    The service is the fail-closed boundary. Every submission runs under the
    service's {!Guard.limits}; admission caps, fuel or deadline exhaustion,
    and unexpected exceptions all surface as [Monitor.Refused reason] with
    the principal's monitor left bit-identical. When a journal is configured,
    each decision is appended (write-ahead: decide, journal, then commit) so
    {!recover} can rebuild the exact monitor state from the log.

    Decisions are logged through the [Logs] library under the source
    ["disclosure.service"]; attach a reporter to observe them. *)

type t

type observation = {
  stage : [ `Admit | `Label | `Decide | `Journal | `Checkpoint | `Rotate | `Fault_in ];
  seconds : float;
  detail : (string * string) list;
      (** Stage-specific attributes, for span emitters: [`Label] reports
          ["label_width"] (atom count) on success, [`Journal] reports
          ["journal_bytes"] (bytes appended) when a record was written.
          Empty otherwise — and computed lazily, only when an observer is
          attached. *)
}
(** One timed stage execution, reported to the [observe] callback of
    {!create}: the pre-decision label admission of {!submit_label}, the
    guarded labeling run, the policy decision, the journal append, a
    checkpoint write, a segment rotation, or a tiered-store fault-in (the
    disk read that brings a spilled principal's state back). Durations come
    from the monotonic clock ({!Mclock}) and are never negative. Used by the
    serving layer to feed per-stage latency histograms and trace spans
    without the service depending on any metrics machinery. *)

exception Unknown_principal of string
exception Duplicate_principal of string

val create :
  ?limits:Guard.limits ->
  ?journal:string ->
  ?segment_bytes:int ->
  ?observe:(observation -> unit) ->
  Pipeline.t ->
  t
(** [limits] defaults to {!Guard.no_limits}. [journal], when given, is the
    journal's {e base} path: the active segment lives there (opened in
    append mode) and the rest of its family beside it ({!Journal}'s
    layout). Every decision is written as a checksummed v2 record
    ({!Journal}); pre-v2 TSV journals still replay but are never written.
    [segment_bytes]
    (default [0] = never) rotates the active segment once it reaches that
    many bytes. [observe], when given, is called synchronously with the
    monotonic duration of each instrumented stage; when absent no clock is
    ever read.
    @raise Invalid_argument on a negative [segment_bytes]. *)

val close : t -> unit
(** Close the journal channel, if any. An open group-commit batch is ended
    first ({!batch_end}), so its buffered records are either flushed and
    committed or rolled back — never silently flushed past the frontier. The service remains usable, but
    decisions submitted after [close] are {e not} durably journaled: a later
    {!recover} from the journal reproduces only the pre-[close] prefix of the
    history. The first post-[close] submission logs a [Logs] warning (source
    ["disclosure.service"], level [warn]) naming the principal whose decision
    was dropped; subsequent ones are silent. Callers that need durability to
    the end of the history must [close] only after the last submission. *)

val pipeline : t -> Pipeline.t

val limits : t -> Guard.limits

val policy : t -> (string * Sview.t list) list -> Policy.t
(** The compiled policy for a partition list, interned: the first call per
    structurally distinct list runs {!Policy.make}, every later call with an
    equal list (physically shared or not) returns the same [Policy.t]. An
    ecosystem whose principals draw their policies from a few templates thus
    holds a few compiled policies, not one per principal.
    @raise Invalid_argument as {!Policy.make} does. *)

val register : t -> principal:string -> partitions:(string * Sview.t list) list -> unit
(** Registers a principal with a (possibly multi-partition) policy: the
    next id, holding a resident monitor over the shared {!policy} for
    [partitions], so a registration allocates a monitor record, one table
    entry and two array slots, never a compiled policy of its own. Any non-empty name is accepted — the v2
    journal escapes its fields, so even separator bytes in a principal name
    cannot forge records (a service writing the legacy format refuses such a
    principal's decisions at submit instead). A tiered store registers
    through {!enroll} instead, so its principals start non-resident.
    @raise Duplicate_principal
    @raise Invalid_argument on empty partitions, more than
    {!Policy.max_partitions} partitions, unregistered views, or an empty
    principal name. *)

val enroll : t -> principal:string -> int
(** Register a principal without a resident monitor and return its id: it
    joins the registration order ({!principals}, checkpoints, snapshots)
    with a vacant slot, and the installed tier answers for that id —
    [tier_find] builds its monitor on first touch, [tier_cold] reports its
    state until then.
    @raise Duplicate_principal if already registered.
    @raise Invalid_argument without a tier, or on an empty name. *)

val register_stateless : t -> principal:string -> views:Sview.t list -> unit
(** Single-partition convenience form. *)

val principals : t -> string list
(** Registration (id) order. With a tier installed, this is every {e
    registered} principal — resident or spilled. *)

val count : t -> int
(** Principals registered: ids run from [0] to [count t - 1]. *)

val find : t -> string -> int option
(** The principal's id. The table only changes at registration, so on a
    service that is no longer registering it may be read from any domain
    once the service was published safely (the serving layer's admission
    check does this). *)

val mem : t -> string -> bool

val name : t -> int -> string
(** The name interned at an id.
    @raise Invalid_argument on an id that was never handed out. *)

val iter_states : t -> (string -> Policy.t -> Monitor.state -> unit) -> unit
(** Every principal's name, policy and state, in id order. A non-resident
    principal is read through one cold view of the tier: residency and the
    eviction clock are left alone. *)

val carry_over : from:t -> t -> unit
(** Copy [from]'s monitor state onto each principal of [t] that [from]
    knows under an equal partition list ({!Sview.equal} view by view) —
    the serving layer's online reload. The lists are compared once per
    pair of interned policies, not once per principal. [t] must have no
    tier installed. Journals nothing.
    @raise Invalid_argument per {!Monitor.restore}.
    @raise Not_found when a monitor of [from] holds a policy that [from]
    did not intern (a monitor {!adopt}ed from elsewhere). *)

(** {1 Tiered principal store hooks}

    A tiered store ([lib/store]) keeps only the hot principals' monitors in
    their slots and spills the cold ones to disk. The service stays the
    single owner of the slots; the store plugs in through a {!tier} record
    whose hooks take principal ids, and moves monitors in and out with
    {!adopt} and {!detach}. Contracts the store upholds:

    - [tier_find id] rebuilds a non-resident principal's monitor, {!adopt}s
      it, and returns it — or returns [None] for an id the store does not
      manage, or raises [Guard.Refuse (Resource (Spill _))] when
      the spilled state cannot be read back (fail-closed: the submission
      paths journal that as a typed refusal; the replay paths turn it into a
      fatal recovery error).
    - [tier_cold ()] opens one view of the non-resident principals {e
      without} changing residency, and returns its lookup — {!checkpoint}
      and {!snapshot} read cold principals through it, so neither faults
      the whole population in. Opening may read the spill file once
      (sequentially); a lookup reports [Pristine partitions] for a
      principal with no record, or [Spilled] with its record in the
      checkpoint codec — CRC, principal name and state fields verified —
      and raises [Guard.Refuse (Resource (Spill _))] when they do not check
      out; either way with the principal's policy. It returns [None] for a
      resident or unmanaged id.
    - [tier_touch id] notifies the store of a resident hit (its eviction
      clock).
    - [tier_reset ()] forgets all spilled state (the journal is the
      authority on a {!recover}).
    - Eviction never runs while a group-commit batch is open: an aborting
      batch restores pre-batch state through the resident slots. *)

type cold =
  | Pristine of Policy.t
      (** No record exists: the principal's state is the initial state of
          this policy. *)
  | Spilled of { policy : Policy.t; record : string; state : Monitor.state }
      (** Its ["p"] record, byte for byte as {!checkpoint} writes it, and the
          state it encodes. *)

type tier = {
  tier_find : int -> Monitor.t option;
  tier_cold : unit -> int -> cold option;
  tier_touch : int -> unit;
  tier_reset : unit -> unit;
}

val set_tier : t -> tier -> unit
(** Install the tier's hooks.
    @raise Invalid_argument if one is already installed. *)

val clear_tier : t -> unit

val adopt : t -> int -> Monitor.t -> unit
(** Put a faulted-in monitor (back) into the principal's slot. The id is
    untouched — residency is not identity.
    @raise Duplicate_principal if already resident. *)

val detach : t -> int -> Monitor.t
(** Empty a principal's slot (eviction) and return its monitor. The
    principal stays registered; a later lookup goes through [tier_find].
    @raise Unknown_principal if not resident. *)

val resident_at : t -> int -> Monitor.t option
(** The monitor in the id's slot, iff resident. Never faults in and never
    touches the eviction clock. *)

val resident_monitor : t -> string -> Monitor.t option
(** {!resident_at} by name; [None] for an unknown name too. *)

val submit : t -> principal:string -> Cq.Query.t -> Monitor.decision
(** Labels the query under the service limits and submits it to the
    principal's monitor. Fail-closed: any refusal — policy, resource,
    malformed, fault — leaves the monitor's alive mask unchanged, and
    non-policy refusals leave the monitor bit-identical (not even a counter
    moves). A journal-append failure refuses the query {e before} commit.
    With a tier installed, a spilled principal is faulted back in first; a
    failed fault-in refuses the query with [Resource (Spill _)] (journaled,
    resident monitors untouched).
    @raise Unknown_principal *)

val submit_label : t -> principal:string -> Label.t -> Monitor.decision
(** For pre-labeled queries (e.g. replayed logs, or the serving layer's label
    cache). Runs the same admission, decision, journal, and commit path as
    {!submit}, minus labeling.
    @raise Unknown_principal *)

val label_query : t -> Cq.Query.t -> (Label.t, Guard.refusal_reason) result
(** The labeling half of {!submit}: query admission, guarded labeling, and
    label-width admission under the service limits, with no monitor involved.
    [submit t ~principal q] is equivalent to [label_query] followed by
    {!submit_label} on success or {!refuse} on error; the serving layer uses
    this split to insert a label cache between the two halves. *)

val label_query_with :
  t ->
  labeler:(budget:Cq.Budget.t -> Cq.Query.t -> Label.t) ->
  Cq.Query.t ->
  (Label.t, Guard.refusal_reason) result
(** {!label_query} with the labeling step delegated to [labeler], which runs
    under the same admission checks, guard budget, fault points, and timing
    observation as {!Pipeline.label} would. The serving layer passes the
    AOT-compiled labeler here; the contract is that [labeler] must be
    bit-identical to [Pipeline.label] on this service's pipeline (the
    compiled artifact's equivalence is enforced by differential tests). *)

val refuse : t -> principal:string -> ?label:Label.t -> Guard.refusal_reason -> Monitor.decision
(** Journal a non-policy refusal decided outside the service — overload
    shedding, or a labeling failure from {!label_query} — and return
    [Refused reason]. The principal's monitor is untouched (non-policy
    refusals never commit). [label] defaults to the journal's ["-"]
    placeholder.
    @raise Unknown_principal
    @raise Invalid_argument on {!Guard.Policy}, which commits monitor state
    and must go through {!submit}/{!submit_label}. *)

(** {1 Decision provenance}

    Between {!capture_begin} and {!capture_take}, the submission paths build
    a structured {!Explain.t} for the decision they produce: witnesses and
    partition report on commits, the typed cause chain on refusals, fuel
    burned and wall time either way. Capture is strictly out of band — it
    never changes a decision, a journal byte, or monitor state (the
    differential suite in [test_explain] holds journals bit-identical with
    capture on or off) — and the disabled path costs one boolean load per
    capture point. The capture slot is single-shot and not thread-safe:
    callers (the serving layer's shard loop) bracket exactly one submission
    per capture, on the domain that owns the service. *)

val capture_begin : t -> unit
(** Arm provenance capture for the next submission on this service. Resets
    any previously captured explanation. *)

val capture_take : t -> Explain.t option
(** Disarm capture and return the explanation of the submission since
    {!capture_begin}, if one reached a decision point. [None] when nothing
    was submitted while armed. *)

val answer :
  t ->
  principal:string ->
  db:Relational.Database.t ->
  Cq.Query.t ->
  Relational.Relation.t option
(** Reference monitor {e and} trusted evaluator: submits the query, and when
    it is answered, computes the answer exclusively through the security
    views ({!Answer.via_views}) — the monitor never touches base relations
    beyond what the user's views disclose. [None] on refusal (state
    unchanged, as always).
    @raise Unknown_principal *)

val alive : t -> principal:string -> string list
(** @raise Unknown_principal *)

val stats : t -> principal:string -> int * int
(** [(answered, refused)] counters.
    @raise Unknown_principal *)

val reset : t -> principal:string -> unit
(** Forget the principal's history. Journaled as a [reset] control record so
    replay stays equivalent to the live history.
    @raise Unknown_principal *)

val journal_position : t -> (int * int) option
(** [(active_segment_index, committed_bytes)]: the index the active segment
    will receive when rotated (so rotated segments are exactly
    [1 .. index - 1] minus compaction) and the byte count of the last
    committed record boundary: the position of the segment's
    {!Journal.Writer}. [None] when no journal is configured or it is
    closed. Safe to call from any domain — two word-sized racy reads.
    Every record is committed before its decision is, so the on-disk
    active segment always holds at least [committed_bytes] bytes of
    well-formed records; a concurrent reader may also see a trailing
    not-yet-committed suffix, which parses as a torn tail
    ({!Journal.parse}). Replication readers rely on exactly this. *)

(** {1 Group commit}

    Per-decision durability pays one [flush] per record: "append; commit"
    on the segment's {!Journal.Writer}. A group-commit batch amortizes it:
    between {!batch_begin} and {!batch_end} it is "append … append;
    commit", and the one flush at {!batch_end} covers every record — flushes
    drop from N per batch to 1. The serving layer opens a
    batch around each drained mailbox batch and holds every decision's
    ticket until the covering flush, so callers still never observe a
    decision whose record is not durable.

    Semantics are bit-identical to per-decision commits:

    - Monitor commits stay inline (a later query in the batch must see an
      earlier one's narrowed mask), but each touched principal's pre-batch
      state is saved on first touch.
    - The committed frontier ({!journal_position}) only advances at the
      covering flush, so replication readers never ship uncovered bytes.
    - If any append or the covering flush fails, the {e whole batch}
      aborts: a failed append poisons the writer, so every later append in
      the batch refuses; the file is rolled back to the frontier, every
      touched monitor is restored to its pre-batch state, and {!batch_end}
      returns [Error] — the caller refuses every decision in the batch,
      exactly as if each had individually failed its append before commit.
      Recovery then replays a journal with no trace of the batch.
    - Rotation and checkpoints defer to batch boundaries ({!checkpoint}
      refuses while a batch is open; size-triggered rotation re-fires after
      the flush).

    A crash between the appends and the flush loses at most the current
    batch's decisions — whose tickets were never filled, so no caller was
    told they committed. *)

val batch_begin : t -> unit
(** Open a group-commit batch. Decisions submitted until {!batch_end}
    buffer their journal records without flushing.
    @raise Invalid_argument if a batch is already open. *)

val batch_end : t -> (unit, Guard.refusal_reason) result
(** Flush the covering write and close the batch. [Ok] when every buffered
    record is durable (or the batch was empty / journal-less); [Error
    (Fault _)] when the batch aborted — all of its decisions were rolled
    back and must be reported refused. No-op [Ok] when no batch is open.
    The {!Faults.Journal_flush} stage injects at the covering flush. *)

val batch_active : t -> bool

val flush_count : t -> int
(** Journal flushes issued by this service instance: one per decision
    without group commit, one per non-empty batch with it. The fsync-
    amortization benchmarks and CI guard read this. *)

val apply_journal_record : t -> string list -> (unit, string) result
(** Re-apply one decision record's unescaped fields
    ([[principal; label; decision]]) to the in-memory monitors — the unit
    step of {!recover}'s replay, exposed so a replication follower can
    apply shipped records continuously. Same replay semantics and failure
    taxonomy as {!recover}'s [`Replay] class: unknown principals,
    undecodable labels, a journaled answer the current policy refuses, and
    records without exactly three fields are [Error]. Journals nothing. *)

(** {1 Checkpoints, rotation, compaction}

    The journal alone makes recovery cost proportional to the whole history.
    A checkpoint bounds it: {!checkpoint} seals the active segment,
    serializes every monitor's state with the same record codec as the
    journal, installs it atomically ({!Journal.install_checkpoint}), and
    deletes the segments the snapshot covers (compaction). A crash at any
    point leaves either the old
    checkpoint or the new one — never a partial one — and at worst some
    already-covered segments that the next recovery skips and the next
    checkpoint removes. {!recover} then restores the newest checkpoint and
    replays only the segments after its coverage bound plus the active
    segment ("the tail"). *)

val checkpoint : t -> (unit, string) result
(** Write a durable checkpoint as described above. A non-resident
    principal's record is copied, not re-encoded: a pristine one's state
    fields come from one shared encoding per partition count, and a spilled
    one's record is copied from one sequential read of the tier's spill
    file once its CRC, principal name and state fields check out — a
    corrupt spill record fails the checkpoint, as it always has. [Error]
    when no journal is configured, the journal is closed, or any step
    fails — in which case the previous checkpoint (if any) and all segments
    are left intact, so durability is never reduced by a failed checkpoint.
    The {!Faults.Checkpoint}, {!Faults.Ckpt_rename} and {!Faults.Rotate}
    stages inject here. *)

val rotation_count : t -> int
(** Segments rotated by this service instance (size-triggered and
    checkpoint-triggered). *)

val checkpoint_count : t -> int
(** Checkpoints successfully written by this service instance. *)

(** {1 Snapshot and recovery}

    Recovery reads the journal family under [<base>] in {!Journal}'s
    layout. *)

val snapshot : t -> (string * Monitor.state) list
(** Immutable copy of every principal's monitor state, in registration
    order: one walk over the ids ({!iter_states}). *)

type recovery_error = {
  file : string;  (** The damaged file. *)
  offset : int;
      (** Byte offset of the offending record (v2 files and checkpoints) or
          1-based line number (legacy files). *)
  kind : [ `Io | `Corrupt_record | `Corrupt_checkpoint | `Replay ];
      (** [`Io]: unreadable file, missing segment, or a tolerated torn tail
          that could not be truncated away. [`Corrupt_record]: a
          record that fails framing, length, CRC, or escaping checks — or a
          torn record anywhere but the final file's tail. [`Corrupt_checkpoint]:
          the same for [<base>.ckpt], which is written atomically and so has
          no torn-tail excuse. [`Replay]: a well-formed record the current
          configuration cannot re-apply (unknown principal, undecodable
          label, a journaled answer the policy now refuses). *)
  detail : string;
}
(** A typed, fail-closed recovery refusal: which file, where, and why. *)

val recovery_error_to_string : recovery_error -> string
(** ["file:offset: detail"]. *)

type recovery = {
  applied : int;  (** Decision records replayed (not counting the checkpoint). *)
  from_checkpoint : bool;  (** A checkpoint was restored before the replay. *)
  torn_tail : bool;  (** A torn final record was dropped (and logged). *)
}

val recover :
  ?on_record:(principal:string -> label:string -> decision:string -> unit) ->
  t ->
  journal:string ->
  (recovery, recovery_error) result
(** Reset all monitors, restore the newest checkpoint (if [<base>.ckpt]
    exists), and replay the tail: rotated segments above the checkpoint's
    coverage bound in index order, then the active segment. Re-applies every
    committed decision — answered records re-evaluate and narrow the alive
    mask, policy refusals bump the refused counter, other refusal tags are
    no-ops (they never touched monitor state), resets reset. Legacy TSV
    journals (no v2 magic) are replayed with the pre-v2 parser.

    The decision table, per damage class:

    - {e torn tail} — the final file ends mid-record (no trailing newline; a
      record commits only when its newline is on disk): tolerated. The
      partial record is dropped with a logged warning, {e truncated from the
      file} (through this service's own journal channel when it holds the
      segment open — the [create]-then-[recover] restart path — so appends
      resume exactly at the commit point rather than merging with the
      partial bytes), and recovery returns [Ok] with [torn_tail = true]; the
      monitors hold the exact live state of the longest committed prefix. A
      torn tail that cannot be truncated fails closed with [`Io]: recovery
      never hands back a journal that is not append-safe.
    - {e corrupt record} — framing/length/CRC/escape damage on a complete
      record, or a torn record in a sealed segment: fail closed with
      [`Corrupt_record] naming file and offset. CRC-32 catches every error
      burst up to 32 bits, so in particular every single-byte corruption.
    - {e damaged checkpoint} — any damage to [<base>.ckpt]: fail closed with
      [`Corrupt_checkpoint] (compaction may already have deleted the covered
      segments, so there is no safe fallback). A {e missing} checkpoint is
      not an error: recovery simply replays the full journal.
    - {e missing segment} — a hole in the rotated-segment indices above the
      checkpoint bound, or no journal files at all: fail closed with [`Io].

    [on_record], when given, is called once per successfully replayed
    decision record with its raw fields, {e after} the record was applied —
    the offline audit ledger ([disclosurectl audit]) is built on this hook.
    Checkpoint restoration does not fire it (those decisions were compacted
    away; only their aggregate survives, visible through {!stats} and
    {!alive}).

    On [Error], the monitors reflect the replayed prefix before the damage —
    callers must treat the service as unrecovered. *)
