(** The concurrent serving layer over {!Disclosure.Service}: principals are
    partitioned across [N] shards by a stable hash of their name. Each shard
    {e exclusively owns} a sequential service, an optional label cache keyed
    by the interned query, and its own append-only journal segment
    ([<base>.shard<i>]); clients reach a shard only through a bounded
    mailbox.

    There are no worker threads. Decisions run on the callers (flat
    combining, see {!Mailbox}): a caller awaiting a ticket claims its
    shard, runs up to [drain] queued messages as one round, and hands the
    claim back. Callers on one shard combine; callers on different shards
    run in parallel.

    Because every principal's queries land on one shard and each shard is
    single-threaded, the per-principal decision sequence is identical to
    replaying the same queries through a single-threaded
    [Disclosure.Service.submit] — concurrency never reorders one principal's
    history, and a label-cache hit replays the label that labeling the
    syntactically identical query produced.

    Overload is fail-closed and non-blocking: when a shard's mailbox is
    full, {!submit} first runs one round itself if the shard is started and
    unclaimed; otherwise (another caller holds the claim, or the server has
    not started) it returns a ticket already resolved to
    [Refused Disclosure.Guard.Overload]. The shed query never reaches the
    shard, so the monitor stays bit-identical; it is {e not} journaled
    ([Overload] never commits state, so recovery is unaffected).

    Lifecycle: {!create} → {!register}… → {!start} → {!submit}/{!await}… →
    {!stop}. Registration is only allowed before {!start}; submission is
    also allowed before {!start} (messages queue and run once the server
    starts — tests use this for deterministic overload). *)

module Metrics = Metrics
module Mailbox = Mailbox
module Label_cache = Label_cache
module Ivar = Ivar
module Shard = Shard

type config = {
  domains : int;
      (** Number of shards (≥ 1). The name predates flat combining: no
          domain is spawned per shard. *)
  mailbox_capacity : int;  (** Per-shard mailbox bound (≥ 1). *)
  cache_capacity : int;  (** Per-shard label-cache entries; [0] disables. *)
  checkpoint_every : int;
      (** Automatic per-shard checkpoint cadence, in decisions processed by
          that shard; [0] disables. Each shard checkpoints its own journal
          independently — no cross-shard locks. *)
  segment_bytes : int;
      (** Per-shard journal-segment rotation threshold in bytes; [0] never
          rotates. *)
  drain : int;
      (** Max mailbox messages one round takes (≥ 1) — one claim amortized
          over the batch. Processing stays strictly in queue order under
          the shard's one claim. *)
  group_commit : bool;
      (** Batch journal flushes across each round (see {!Shard.create}):
          one covering fsync per round instead of one per decision, with
          every ticket in the batch filled only after that flush.
          Decisions, journal bytes, and recovery are bit-identical to
          per-decision commits; a failed covering flush refuses the whole
          batch with the monitors rolled back. No effect on journal-less
          servers beyond the deferred ticket fills. *)
  resident : Store.budget option;
      (** Per-shard resident-set budget for the tiered principal store
          ({!Store}): cold principals spill to [<journal>.shard<i>.spill]
          and fault back in on first touch, with decisions, journal bytes,
          and checkpoint bytes bit-identical to always-resident. [None]
          (the default) keeps every principal resident. *)
}

val default_config : config
(** [{ domains = 4; mailbox_capacity = 1024; cache_capacity = 4096;
      checkpoint_every = 0; segment_bytes = 0; drain = 64;
      group_commit = false; resident = None }] *)

type t

type ticket = Disclosure.Monitor.decision Ivar.t
(** A pending decision; resolve with {!await}. *)

type explained_ticket = (Disclosure.Monitor.decision * Disclosure.Explain.t option) Ivar.t
(** A pending decision plus its provenance; resolve with
    {!await_explained}. *)

val create :
  ?limits:Disclosure.Guard.limits ->
  ?journal:string ->
  ?trace:Obs.Trace.t ->
  ?config:config ->
  Disclosure.Pipeline.t ->
  t
(** [journal], when given, is a {e base} path: shard [i] journals to
    [<journal>.shard<i>] (which is in turn that shard's base for rotated
    segments [<journal>.shard<i>.<n>] and its checkpoint
    [<journal>.shard<i>.ckpt]). All shards share [limits] and the pipeline.

    [trace], when given, must have at least [config.domains] tracks; each
    shard then emits spans for its queries (see {!Shard.create}) under the
    recorder's sampling policy. Tracing off ([trace] absent) costs one
    monotonic-clock read per query (the enqueue stamp for the [Wait]
    histogram) and nothing else.
    @raise Invalid_argument on a non-positive [domains], [mailbox_capacity],
    or [drain], or a negative [cache_capacity], [checkpoint_every], or
    [segment_bytes]. *)

val config : t -> config

val register :
  t -> principal:string -> partitions:(string * Disclosure.Sview.t list) list -> unit
(** Registers the principal on its owning shard, whose service interns it
    to its next dense id ({!Disclosure.Service}); the server itself keeps
    no per-principal table, only the owning shard's index per
    registration (one byte each up to 256 shards) for {!principals}.
    Only before {!start}.
    @raise Invalid_argument after {!start}, or per
    {!Disclosure.Service.register}.
    @raise Disclosure.Service.Duplicate_principal *)

val register_stateless : t -> principal:string -> views:Disclosure.Sview.t list -> unit

val principals : t -> string list
(** Global registration order (after a successful {!reload}, the new
    configuration's order): the recorded shard per registration, walked
    with one cursor per shard over the shards' id-ordered names. *)

val start : t -> unit
(** Let callers run the shards' rounds, waking any caller already awaiting
    a ticket. Spawns nothing.
    @raise Invalid_argument when already started or stopped. *)

val submit : ?ctx:int * int -> t -> principal:string -> Cq.Query.t -> ticket
(** Enqueue a query on the principal's shard; nothing runs until a caller
    awaits. The one exception is a full mailbox: a started, unclaimed
    shard runs one round on the caller first, otherwise the query is shed
    with a ticket already resolved to [Refused Overload] (see the overview
    above). [ctx], when given, is the
    caller's [(trace_id, parent_span_id)] (typically decoded from a wire
    frame): the shard's spans for this query join that trace.
    @raise Disclosure.Service.Unknown_principal
    @raise Invalid_argument after {!stop}. *)

val submit_explained :
  ?ctx:int * int -> t -> principal:string -> Cq.Query.t -> explained_ticket
(** Like {!submit} — the decision is identical, committed, and journaled —
    but the ticket also carries the decision's structured provenance
    ({!Disclosure.Explain.t}): matched views, mask delta, budget spent,
    deciding tier and cache level, refusal cause chain. Shed queries
    resolve immediately with an overload-stage explanation built on the
    caller's domain. The explanation is [None] only if capture failed
    inside the service.
    @raise Disclosure.Service.Unknown_principal
    @raise Invalid_argument after {!stop}. *)

val await : ticket -> Disclosure.Monitor.decision
(** Runs the shard's rounds on the caller until the ticket is filled,
    blocking only while another caller holds the shard's claim or before
    {!start} (immediate for shed queries). {!Ivar.peek} does the same
    without blocking. *)

val await_explained :
  explained_ticket -> Disclosure.Monitor.decision * Disclosure.Explain.t option

val submit_sync : t -> principal:string -> Cq.Query.t -> Disclosure.Monitor.decision
(** [await (submit t ~principal q)]. *)

val drain : t -> unit
(** Returns once every shard has processed all messages enqueued before the
    call (a barrier message per shard, run by this caller when no one else
    is). No-op unless running. *)

val stop : t -> unit
(** Close the mailboxes, wait for running rounds, run the queued messages
    on the caller, and close the journals. Queries enqueued before [stop]
    are still decided. Idempotent. On a never-started server, queued tickets resolve
    fail-closed to [Refused (Fault _)]. *)

(** {1 Introspection}

    Delegates to the owning shard's service. Exact only while the shards
    are quiescent — before {!start}, after {!stop}, or right after
    {!drain} with no concurrent submissions. {!alive} and {!stats} raise
    [Disclosure.Service.Unknown_principal] for unknown principals. *)

val alive : t -> principal:string -> string list

val stats : t -> principal:string -> int * int

val snapshot : t -> (string * Disclosure.Monitor.state) list
(** Every principal's state in {!principals} order: one
    {!Disclosure.Service.snapshot} per shard, merged — linear in the
    population. *)

val metrics : t -> Metrics.t

val trace : t -> Obs.Trace.t option
(** The recorder passed to {!create}, if any. *)

val started_at : t -> float
(** Wall-clock creation time ([Unix.gettimeofday]) — a timestamp for humans
    ({e display only}). Rate math must divide by {!uptime_s}, which does not
    share this clock. *)

val uptime_s : t -> float
(** Seconds since creation on the {e monotonic} clock
    ({!Disclosure.Mclock}), never negative: a wall-clock step (NTP, manual
    change) cannot corrupt uptime-derived rates such as
    [submitted / uptime_s]. *)

val compile_stats : t -> Compile.Artifact.stats
(** Compiled-labeler statistics summed over shards (the [version] field is
    the maximum — shards reload in lockstep, so versions only diverge for
    the duration of a reload). Counter reads are racy word reads; exact on
    a quiescent or drained server. *)

val store_stats : t -> Store.stats option
(** Tiered-store statistics summed over shards; [None] when [config.resident]
    is [None]. Racy word reads; exact on a quiescent or drained server. *)

val shard_index : shards:int -> string -> int
(** The pure principal→shard assignment (stable FNV-1a hash mod [shards]) —
    exposed so a replication follower can partition a configuration's
    principals exactly as the primary did. *)

val shard_journal : string -> int -> string
(** [shard_journal journal i] is shard [i]'s journal base,
    [<journal>.shard<i>]: the base of that shard's whole family
    ({!Disclosure.Journal}'s layout). *)

val journal_position : t -> shard:int -> (int * int) option
(** The shard's [(active_segment, committed_bytes)] journal watermark. Safe
    from any domain (racy word reads, see
    {!Disclosure.Service.journal_position}); [None] for a journal-less or
    stopped shard, never for a journaled one mid-reload (a read that races
    the swap follows it). Callers must treat [None] as "no position", never
    as caught up.
    @raise Invalid_argument on an out-of-range shard. *)

val flush_counts : t -> int array
(** Per-shard journal flush (fsync) counts by shard index
    ({!Shard.flush_count}) — one per decision without [group_commit], one
    per round with it; the group-commit benchmark and tests divide
    by decisions to bound fsyncs per decision. Racy word reads; exact on a
    quiescent or drained server. *)

val prometheus : t -> string
(** {!Metrics.to_prometheus} after resampling every shard's gauges
    ({!Shard.sample}), so a single scrape carries the exact committed
    offsets (replication lag = primary offset − follower offset, no second
    scrape). *)

val stats_json : t -> Obs.Json.t
(** One JSON object with everything a dashboard needs from a single scrape,
    after the same resample as {!prometheus}: [started_at] (epoch seconds),
    [uptime_s], [shards], [principals], a [journal] array of per-shard
    [{segment, offset}] committed watermarks ([null] for journal-less
    shards), the registry's summary sections ({!Metrics.sections}: [cache],
    [compile], and [store] when [config.resident] is set), the full
    {!Metrics.to_json} document under [metrics], and — when tracing — a
    [trace] object with the sampling configuration and retained/dropped
    scope counts. Rates are single-scrape computable:
    [submitted / uptime_s]. Render it with {!Metrics.pp_stats}. *)

(** {1 Checkpointing and recovery} *)

val checkpoint : t -> (unit, string) result
(** Checkpoint every shard's journal now (sealing its active segment,
    snapshotting its monitors to [<journal>.shard<i>.ckpt], compacting
    covered segments — see {!Disclosure.Service.checkpoint}). On a running
    server this is a control message run inside each shard's rounds; on a
    quiescent server it runs inline. Independent of the
    automatic [checkpoint_every] cadence. Returns the first failing shard's
    error; a failure on one shard does not stop the others. *)

val recover : t -> journal:string -> (int, Disclosure.Service.recovery_error) result
(** Replay the journal segments [<journal>.shard<i>] in shard-index order
    through each shard's {!Disclosure.Service.recover} (checkpoint + tail
    replay per shard), returning the total number of applied records and
    bumping the [Recoveries] / [Recovered_records] metrics. Deterministic
    because principals are disjoint across shards. Requires the same
    [domains] count (and registration set) as the run that wrote the
    segments, and a non-running server. A damaged shard journal fails the
    whole recovery with that shard's typed error.
    @raise Invalid_argument while running. *)

(** {1 Online policy reload} *)

val reload : t -> Disclosure.Policyfile.t -> (unit, string) result
(** Swap in a new policy configuration with zero downtime: validate the
    whole configuration first (unknown views, duplicate principals,
    partition caps — any error aborts before a single shard is touched),
    then swap each shard's service inside one of its rounds via a
    {!Shard.msg.Reload} control message. No connection is dropped and no
    query is lost: mailbox ordering decides every query under exactly one
    policy version. Principals whose partition lists are unchanged keep
    their monitor state (the cumulative-disclosure charge survives);
    changed or new principals start fresh. Each shard's label cache is
    reset and its journal checkpointed post-swap, so recovery restores the
    carried state rather than replaying old-policy records through the new
    configuration.

    Admission asks the owning shard's live service, and a shard publishes
    its new service only once the swap is complete: a principal added by
    the new configuration becomes submittable as soon as its own shard has
    swapped ([Unknown_principal] before), and a removed one raises
    [Unknown_principal] from then on. A query for a removed principal
    admitted just before its shard swapped fails closed with
    [Refused (Fault _)]. The carry-over is linear in the population
    ({!Disclosure.Service.carry_over}), so a shard's claim is held for a
    time proportional to its principals, not their square. On [Error]
    after validation passed (journal I/O only), the failing shard keeps
    serving its {e old} policy while other shards may have swapped —
    fail-closed per shard, never a wrong answer; {!principals} keeps the
    previous order (each shard's population still listed exactly once),
    and the operator should retry or restart. Works on both quiescent and
    running servers; [Error] on a stopped one. *)
