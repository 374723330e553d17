(** The standby side of hot-standby replication: continuously pull the
    primary's journal bytes, mirror them verbatim into a local segment
    family with the same layout, and replay every record into live
    journal-less services — one per shard, partitioned exactly as the
    primary partitions ({!Server.shard_index}).

    Two invariants carry the failover contract:

    - {e the mirror is a bit-identical prefix} of the primary's committed
      journal (or, after a bootstrap, of its checkpoint plus committed
      tail): bytes are validated (framing, CRC, replayability) and then
      written unmodified; rotations replay the primary's own renames;
    - {e fail closed, never divergent}: a batch that fails validation or
      replay never reaches the mirror; a mirror write that fails is rolled
      back to the committed prefix ({!Disclosure.Journal.Writer}). Either
      way the poll loop halts with {!last_error} set, and {!promote}
      refuses. A killed or partitioned
      follower resumes from its mirror alone — {!create} recovers the
      local family exactly as the primary would after a crash, and the
      resume cursor is derived from the recovered files.

    Promotion ({!promote}) builds a fresh {!Server.t} journaled on the
    mirror and runs {!Server.recover} over it, so the promoted primary's
    visible state is what the old primary's own crash recovery would have
    produced from the same prefix. *)

type t

val create :
  ?id:string ->
  ?limits:Disclosure.Guard.limits ->
  ?max_bytes:int ->
  ?trace:Obs.Trace.t ->
  ?resident:Store.budget ->
  journal:string ->
  shards:int ->
  Disclosure.Policyfile.t ->
  (t, string) result
(** [journal] is the local mirror's base path (shard [i]'s family at
    [<journal>.shard<i>]); [shards] must equal the primary's domain count
    (the shipped segments only replay correctly under the same principal
    split). The configuration is validated ({!Disclosure.Policyfile.resolve})
    and each shard's mirror is recovered — an existing mirror resumes
    (with any torn local tail truncated away), an empty one starts in
    bootstrap state. [max_bytes] caps each pull (default 1 MiB).

    [trace], when given, records one ["replicate"] span per pull round
    trip on track [shard]: its ids travel as the pull's trace context (so
    the primary's serving span joins the standby's trace), and the batch's
    echoed primary-span id lands as a [primary_span] attribute — in a
    merged export ({!Obs.Chrome.export_merged}), replication lag is
    attributable to the specific primary-side serve that produced each
    batch. The recorder needs at least [shards] tracks.

    [resident], when given, bounds each mirror service's resident set with
    a tiered principal store ({!Store}) — the standby replays a
    million-principal journal within the same memory budget as a tiered
    primary, spilling to [<journal>.shard<i>.spill] (scratch, never part of
    the mirrored prefix) and faulting back in during replay. Replayed
    state stays bit-identical to an always-resident follower; a promoted
    server inherits the budget unless [promote]'s [config] overrides it.

    [id] names this follower on the primary's per-follower cursor table
    (sent with every pull). Defaults to a pid-qualified generated id,
    distinct per [create] within the process — give a standby a stable id
    only if you want its cursor to survive its own restarts.
    @raise Invalid_argument on [shards < 1]. *)

val id : t -> string
(** The id sent with every pull ({!create}'s [id] or the generated
    default). *)

val apply_batch : t -> shard:int -> Net.Codec.response -> (unit, string) result
(** Validate and apply one pull response (a [Batch] mirrors and replays; a
    [Snapshot] re-bootstraps the shard). Exposed for deterministic tests;
    the poll loop goes through this same path. [Error] means the response
    was rejected {e before} touching the mirror (corrupt, torn,
    unreplayable, wrong shard), or that the mirror write failed and was
    rolled back with the cursor unchanged — fail closed. The mirror's
    writer trips {!Disclosure.Faults.Journal_flush} before its flush, as
    the primary's does. *)

val poll_once : t -> Net.Client.t -> int
(** One full pull pass on the calling domain: every shard is pulled until
    its [behind] reaches [0] (so a single call catches up completely
    against a quiescent primary), gauges are refreshed, and the total
    shipped bytes are returned. A divergence halts the pass and sets
    {!last_error}; typed wire refusals (mid-reload, no source) skip the
    shard until the next pass. Must not race {!run}.
    @raise Net.Client.Protocol_error on transport failure. *)

val run : t -> primary:Net.Addr.t -> interval:float -> unit
(** Spawn the poll domain: connect to [primary], pull every shard until
    [behind = 0], wait [interval], repeat. On a failed connect or a lost
    connection it reconnects with {!Net.Client.connect_retry}'s jittered
    backoff, capped at 0.2 s or [interval], whichever is longer, and logs
    one warning per outage, not one per attempt. A divergence error halts
    the loop permanently with {!last_error} set.
    @raise Invalid_argument when already running. *)

val stop : t -> unit
(** Stop and join the poll domain, ending at once whichever wait it is in
    (the poll interval or a reconnect backoff); a pull in flight still
    completes. Idempotent. *)

val promote :
  t -> ?config:Server.config -> unit -> (Server.t * int, string) result
(** Fail over: {!stop}, then build a server journaled on the mirror,
    register the configuration, and {!Server.recover} — returning the
    promoted (not yet started) server and the number of replayed decision
    records. [config]'s [domains] is forced to the follower's shard
    count. [Error] on a diverged follower or a damaged mirror. *)

(** {1 Introspection} (safe from any domain) *)

val cursor : t -> shard:int -> int * int
(** The shard's mirror cursor [(active_segment, committed_bytes)] —
    [(0, 0)] while bootstrap is still pending. *)

val lag : t -> int
(** Total bytes behind the primary, per its last [behind] estimates. *)

val applied : t -> int
(** Decision records replayed into the live services since {!create}. *)

val last_error : t -> string option
(** The terminal divergence error, if the follower halted. *)

val since_last_pull : t -> float
(** Seconds on {!Disclosure.Mclock} since the primary last answered a
    pull round trip (by {!run} or {!poll_once}) without divergence; since
    {!create} before the first. Every round trip restarts it, so a long
    catch-up pass against a live primary keeps it small; it grows while
    the primary is unreachable — the measure an auto-failover compares
    with its threshold. *)

val metrics : t -> Server.Metrics.t
(** The follower's own registry: [Rep_pulls], [Rep_shipped_bytes],
    [Rep_applied_records], and per-shard [Journal_segment] /
    [Journal_offset] / [Replication_lag] gauges. *)

val service : t -> shard:int -> Disclosure.Service.t
(** The shard's live journal-less service — for tests asserting the
    follower's replayed state matches the primary's. Only safe while the
    poll loop is stopped. *)

val store_stats : t -> Store.stats option
(** Tiered-store statistics summed over the mirror shards; [None] without
    a [resident] budget. Only exact while the poll loop is stopped. *)

val stats_json : t -> string
(** One JSON object: role, shard count, applied records, total lag, a
    [journal] array of per-shard [{segment, offset, behind}] cursors, and
    [error] when diverged. *)
