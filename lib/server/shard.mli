(** One shard of the serving layer: a single-threaded
    {!Disclosure.Service} plus an optional label cache behind a bounded
    mailbox that its callers run ({!Mailbox}). Because only the claim holder
    (or the owner strictly before {!start} / after {!stop}) ever touches the
    service, its journal channel, or the cache, none of them need locks and
    the sequential service semantics carry over unchanged. *)

type msg =
  | Query of {
      principal : string;
      query : Cq.Query.t;
      ticket : Disclosure.Monitor.decision Ivar.t;
      enqueued_ns : int64;
          (** {!Disclosure.Mclock.now_ns} at submit time, for the [Wait]
              histogram and the wait span; [0L] when unknown (the round
              then skips wait accounting). *)
      ctx : (int * int) option;
          (** Inherited wire trace context [(trace_id, parent_span_id)]:
              the shard's root span joins that trace instead of starting
              its own (see {!Obs.Trace.query_begin}). *)
    }
  | Explain of {
      principal : string;
      query : Cq.Query.t;
      ticket : (Disclosure.Monitor.decision * Disclosure.Explain.t option) Ivar.t;
      enqueued_ns : int64;
      ctx : (int * int) option;
    }
      (** Like [Query] — the decision is identical, committed, and
          journaled — but the round additionally captures the decision's
          provenance ({!Disclosure.Service.capture_begin}) and stitches in
          the two facts only the shard knows: which compiled tier labeled
          the query ({!Compile.Artifact.last_tier}, or ["cache"] on a
          label-cache hit) and which cache level served it. The ticket's
          explanation is [None] only if capture itself failed; under group
          commit a batch abort replaces it with a journal-stage refusal
          explanation. *)
  | Barrier of unit Ivar.t
      (** Control message: filled when a round reaches the barrier, i.e.
          after every earlier message has been processed. *)
  | Checkpoint of (unit, string) result Ivar.t
      (** Control message: the round checkpoints the service's journal
          ({!Disclosure.Service.checkpoint}) and fills the ivar with the
          result. *)
  | Reload of {
      pipeline : Disclosure.Pipeline.t;
      principals : (string * (string * Disclosure.Sview.t list) list) list;
      reply : (unit, string) result Ivar.t;
    }
      (** Control message: the round swaps in the new policy configuration
          ({!reload}) and fills the ivar with the result. Mailbox ordering
          is the exactly-one-policy-version guarantee: every query is
          decided by whichever service is live when its round dequeues
          it. *)

type t

val create :
  index:int ->
  ?limits:Disclosure.Guard.limits ->
  ?journal:string ->
  ?segment_bytes:int ->
  ?checkpoint_every:int ->
  ?trace:Obs.Trace.t ->
  mailbox_capacity:int ->
  cache_capacity:int ->
  ?drain:int ->
  ?group_commit:bool ->
  ?resident:Store.budget ->
  metrics:Metrics.t ->
  Disclosure.Pipeline.t ->
  t
(** [cache_capacity = 0] disables the label cache. [drain] (default 64)
    caps how many mailbox messages one round takes.

    [group_commit] (default [false]) makes each round one journal batch
    ({!Disclosure.Service.batch_begin} / [batch_end]): every
    decision's record buffers in the channel, one covering flush lands at
    the end of the drain, and every ticket in the batch is filled only
    after that flush — so clients still never observe a decision whose
    record is not durable, while fsyncs drop from one per decision to one
    per batch. Control messages (barrier, checkpoint, reload) force the
    covering flush before they run, keeping their ordering guarantees
    unchanged. A failed append or covering flush rolls the whole batch
    back (monitors restored, segment truncated to the durable frontier)
    and refuses every ticket in it — bit-identical to each decision
    individually failing its append before commit.

    [journal], when given, is
    this shard's own journal base path (the server derives one per shard);
    [segment_bytes] (default [0] = never) rotates the shard's active segment
    at that size, and [checkpoint_every] (default [0] = never) checkpoints
    the shard's journal every that many processed decisions — each shard
    seals, snapshots, and compacts its own segment family independently, no
    cross-shard locks. The shard's service reports stage timings into
    [metrics] (including [Checkpoint] and [Rotate]), and a failed automatic
    checkpoint is logged, never surfaced as a refusal.

    [resident], when given, wraps the shard's service in a tiered principal
    store ({!Store}) bounded by that budget: cold principals spill to
    [<journal>.shard<i>.spill] (a temp file on journal-less shards) and
    fault back in on first touch, with decisions, journal bytes, and
    checkpoint bytes bit-identical to the always-resident shard. Eviction
    runs at decision boundaries (batch boundaries under [group_commit]),
    and the spill file is compacted after each successful checkpoint.

    [trace], when given, additionally turns every observation into a span
    on the recorder's track [index]: each processed query opens a scope
    (rooted at its enqueue time, with the mailbox wait as its first child
    span), every timed stage lands inside it, and the scope closes with the
    decision as its [outcome] attribute — subject to the recorder's
    head/tail sampling. Checkpoints trace as forced ["maintenance"] scopes.
    The shard also writes all of [metrics]' per-shard gauges ({!sample})
    every few dozen queries and at every barrier, checkpoint and reload.
    @raise Invalid_argument on a negative [checkpoint_every] or a [drain]
    below 1. *)

val index : t -> int

val service : t -> Disclosure.Service.t
(** The shard's underlying service. Must only be used before {!start} or
    after {!stop} (registration, recovery, snapshots) — while running, the
    claim holder owns it. *)

val register :
  t ->
  principal:string ->
  partitions:(string * Disclosure.Sview.t list) list ->
  unit
(** {!Disclosure.Service.register} on the shard's service — or, with a
    tiered store, {!Store.register} straight into its fresh tier. The
    server registers through this, never through {!service} directly. *)

val mem : t -> string -> bool
(** Is the principal registered on the live service? Safe from any domain
    once the shard has started: a service's name table only changes at
    registration, before {!start}, and {!reload} publishes a complete
    staged service atomically. The server's admission check. *)

val journal_position : t -> (int * int) option
(** {!Disclosure.Service.journal_position} of the live service: the
    [(active_segment, committed_bytes)] watermark. Safe from any domain
    (racy word reads); [None] without a journal. A {!reload} publishes the
    staged service before closing the old one; a reader that loaded the old
    service just before the swap finds it closed and reads the live one
    instead, so a journaled shard never reports [None] across reloads. *)

val sample : t -> unit
(** Write every per-shard gauge of the shard's metrics from its live state
    (Gc, journal, label cache, compiled artifact, tiered store). Safe from
    any domain: off the claim the reads are racy word reads, exact on a
    quiescent or drained shard. *)

val flush_count : t -> int
(** {!Disclosure.Service.flush_count} of the live service (also exported as
    the [journal_flushes] per-shard gauge). Exact only while no round is
    running. *)

val reload :
  t ->
  pipeline:Disclosure.Pipeline.t ->
  principals:(string * (string * Disclosure.Sview.t list) list) list ->
  (unit, string) result
(** Swap in a new policy configuration: stage a fresh service on the same
    journal base, register [principals] against [pipeline] in list order
    (a failure aborts with the live service untouched), carry monitor
    state for principals whose partition lists are unchanged
    ({!Disclosure.Service.carry_over}: linear in the population), reset
    the label cache,
    and checkpoint the carried state so recovery never replays old-policy
    records through the new configuration. Must only be called while the
    shard is quiescent (before {!start} or after {!stop}); while running,
    send a {!msg.Reload} message instead. *)

val mailbox : t -> msg Mailbox.t

val handle : t -> principal:string -> Cq.Query.t -> Disclosure.Monitor.decision
(** Process one query inline (cache lookup, labeling, decision, journal,
    commit) on the calling domain. Called by rounds; exposed for
    deterministic single-threaded tests. Decision-for-decision equivalent to
    [Disclosure.Service.submit] on the shard's service. *)

val process : t -> msg -> unit
(** Handle one message and fill its ticket. Exposed for tests. *)

val checkpoint : t -> (unit, string) result
(** Checkpoint the shard's journal now, on the calling domain. Must only be
    used while the shard is quiescent (before {!start} or after {!stop});
    while running, send a {!msg.Checkpoint} message instead. *)

val start : t -> unit
(** Let callers run rounds ({!Mailbox.start}); spawns nothing. A round
    that raises refuses every ticket it has not settled with
    [Refused (Fault _)] instead of stranding its callers.
    @raise Invalid_argument when already started. *)

val stop : t -> unit
(** Close the mailbox, wait for any running round, then run every queued
    message on the caller ({!Mailbox.finish}). *)

val abandon : t -> unit
(** Stop a never-started shard: close its mailbox and settle every queued
    ticket without deciding it — queries refuse with [Refused (Fault _)],
    barriers fill, checkpoints and reloads report [Error].
    @raise Invalid_argument on a started shard. *)

val artifact : t -> Compile.Artifact.t
(** The shard's live AOT-compiled labeler. Swapped (with a bumped version)
    by every {!reload}. Must only be inspected while the shard is
    quiescent (before {!start}, after {!stop}, or after a barrier) — its
    memo tables are claim-holder state, like the cache. *)

val compile_stats : t -> Compile.Artifact.stats
(** {!Compile.Artifact.stats} of the live artifact: version, fallbacks,
    atom-memo hit rates, interner occupancy (the interner keys the label
    cache). Same quiescence caveat as {!artifact}. *)

val store : t -> Store.t option
(** The shard's tiered principal store, when created with [?resident].
    Same quiescence caveat as {!artifact}. *)

val store_stats : t -> Store.stats option
(** {!Store.stats} of the shard's store; [None] without one. Same
    quiescence caveat as {!artifact}. *)

val close_store : t -> unit
(** Close the tiered store (uninstall its tier hooks, close the spill
    channels). Called by the server on stop, after {!stop}; idempotent and
    a no-op without a store. *)
