(** Lock-free serving-layer metrics and the one registry every exporter
    walks. Each exported number is declared once in [metrics.ml] — its
    name, help text and, for a number the stats document also summarizes,
    its place there — and {!to_json}, {!to_prometheus}, {!sections} and
    {!pp_stats} are walks over those declarations: adding a counter, gauge
    or histogram member is one constructor plus one declaration row, and no
    exporter changes.

    All operations are safe to call concurrently from any domain; reads are
    racy-but-coherent snapshots (each cell is read atomically, the set of
    cells is not). *)

(** Pipeline stages timed by the serving layer. *)
type stage =
  | Net
      (** Server-side handling of one wire request: frame decoded to
          response bytes written, on the connection's domain ([lib/net]). *)
  | Wait
      (** Mailbox residency: enqueue by the submitter to the start of the
          round that runs it. *)
  | Admit  (** Pre-decision label admission on the cached submit path. *)
  | Canonicalize
      (** Computing the label-cache key: interning the query's exact
          structure. The name predates the single key level. *)
  | Label  (** The guarded labeling run inside {!Disclosure.Service}. *)
  | Cache  (** Label-cache lookup and maintenance. *)
  | Decide  (** The monitor's policy decision. *)
  | Journal  (** The decision-journal append. *)
  | Checkpoint  (** Writing a durable per-shard checkpoint. *)
  | Rotate  (** Rotating a shard's active journal segment. *)
  | Fault_in
      (** Reading a spilled principal's state back from the tiered store's
          spill file (one disk read on the principal's first touch). *)

(** Monotone event counters. *)
type counter =
  | Submitted
  | Answered
  | Refused  (** All refusals, including overloads. *)
  | Overloaded  (** Queries shed because a shard mailbox was full. *)
  | Cache_hit
  | Cache_miss
  | Cache_eviction
  | Checkpoints  (** Checkpoint attempts driven by the shards. *)
  | Rotations  (** Journal-segment rotation attempts. *)
  | Recoveries  (** Per-shard [Service.recover] replays completed. *)
  | Recovered_records  (** Decision records re-applied across recoveries. *)
  | Net_accepted  (** Connections accepted by the networked front-end. *)
  | Net_rejected
      (** Connections refused at accept (connection cap, shutdown, fault). *)
  | Net_requests  (** Wire requests fully handled (a response was sent). *)
  | Net_errors
      (** Typed protocol errors (garbage/torn/oversized frames, timeouts);
          each closes its connection and journals nothing. *)
  | Net_bytes_in  (** Payload + frame bytes read from clients. *)
  | Net_bytes_out  (** Payload + frame bytes written to clients. *)
  | Net_reads  (** read(2) calls on client connections. *)
  | Net_writes
      (** write(2) calls on client connections: one per batch of
          responses unless the kernel takes a write short. *)
  | Reloads  (** Online policy reloads completed (all shards swapped). *)
  | Rep_pulls  (** Replication pull requests served (primary side). *)
  | Rep_shipped_bytes  (** Journal/checkpoint bytes shipped to followers. *)
  | Rep_applied_records  (** Shipped records replayed (follower side). *)
  | Combine_rounds
      (** Rounds a caller ran on a shard it claimed: each takes up to
          [drain] queued messages and runs them as one batch. *)
  | Ticket_waits
      (** Times a caller awaiting a ticket blocked on its shard's condition
          because another caller held the claim (or the shard was not yet
          started). [0] in a closed loop with one caller per shard. *)

(** Per-shard gauges: the newest sample wins, nothing accumulates. The
    shard writes all of them in one sample on a cadence,
    at barriers, checkpoints and reloads, and at every stats or Prometheus
    scrape; a follower writes its journal and lag gauges itself. *)
type gauge =
  | Gc_minor_collections
  | Gc_major_collections
  | Gc_promoted_words  (** Words promoted minor → major (truncated to int). *)
  | Journal_segment  (** Active journal segment index of the shard. *)
  | Journal_offset  (** Committed bytes in the shard's active segment. *)
  | Journal_flushes
      (** Journal flushes issued by the shard's service: one per decision
          without group commit, one per drained batch with it. *)
  | Replication_lag
      (** On a follower: bytes of committed primary journal this node has
          not yet applied. On a primary with a replication source: the
          worst last-reported lag across known followers. *)
  | Cache_entries  (** Labels held by the shard's label cache. *)
  | Cache_capacity  (** The label cache's capacity ([0] when disabled). *)
  | Compile_version
      (** Version of the shard's compiled labeling artifact; bumped by every
          online policy reload. *)
  | Compile_groups  (** Compiled (relation, arity) groups. *)
  | Compile_fallbacks
      (** Queries the compiled labeler escaped to the interpreter for. *)
  | Atom_hits  (** Per-atom memo hits of the live artifact. *)
  | Atom_misses
  | Intern_entries  (** Live entries in the shard's hash-consing table. *)
  | Intern_capacity
  | Intern_hits
  | Intern_misses
  | Intern_flushes
  | Resident_principals
      (** Principals whose monitors are resident (tiered store only). *)
  | Spilled_principals  (** Principals represented by a spill record on disk. *)
  | Fresh_principals  (** Non-resident principals with pristine state. *)
  | Fault_ins  (** Successful fault-ins since the store was created. *)
  | Spill_writes  (** Spill records written since the store was created. *)
  | Store_evictions  (** Evictions (pristine drops + spills). *)
  | Spill_bytes  (** Current size of the shard's spill file. *)

(** The labeler tier that decided a query: a label-cache hit, or the
    compiled artifact's own deciding tier. Recorded with the whole submit
    latency (labeling + decision + journal). [Compiled] takes only the
    tiers in {!Compile.Artifact.tiers}: the retired [Tier_diagram] and
    [Tier_query_memo] have no slot. *)
type tier =
  | Cached
  | Compiled of Compile.Artifact.tier

(** Dimensionless batching-shape histograms (same power-of-two buckets,
    values instead of nanoseconds). *)
type size =
  | Group_batch  (** Decisions covered by one group-commit fsync. *)
  | Pipeline_window  (** Frames decoded per connection wakeup. *)

type t

val create : ?shards:int -> unit -> t
(** [shards] (default [1]) sizes the per-shard gauge table.
    @raise Invalid_argument on [shards < 1]. *)

val shard_count : t -> int

(** {1 The registry} *)

val stages : stage list
val counters : counter list
val gauges : gauge list
val tiers : tier list
val sizes : size list

val stage_name : stage -> string
val counter_name : counter -> string
val gauge_name : gauge -> string
val tier_name : tier -> string
val size_name : size -> string

(** {1 Recording} *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val count : t -> counter -> int

val set_gauge : t -> shard:int -> gauge -> int -> unit
(** Overwrite the shard's gauge with a fresh sample. Out-of-range shards
    are ignored — a gauge sample must never crash a round. *)

val gauge_value : t -> shard:int -> gauge -> int
(** [0] for out-of-range shards. *)

val record : t -> stage -> float -> unit
(** [record t stage seconds] adds one observation of [seconds] to the
    stage's histogram. Negative samples are clamped to [0]. *)

val time : t -> stage -> (unit -> 'a) -> 'a
(** Runs the thunk and {!record}s its duration (monotonic clock, never
    negative), whether it returns or raises. *)

val record_tier : t -> tier -> float -> unit
(** One decision's end-to-end latency, attributed to its deciding tier. *)

val record_size : t -> size -> int -> unit
(** One batching-shape observation (a batch's decision count, a wakeup's
    frame count). Negative values are clamped to [0]. *)

(** {1 Reading} *)

type histogram = {
  count : int;
  total_ns : int;  (** The sum of the values; dimensionless for {!size}. *)
  buckets : int array;  (** [buckets.(i)] counts values in [[2{^i}, 2{^i+1})]. *)
}

val histogram : t -> stage -> histogram
val size_histogram : t -> size -> histogram

val mean_ns : histogram -> float

val percentile_ns : histogram -> float -> int
(** [percentile_ns h 0.99] is an upper bound (the enclosing bucket's upper
    edge) on the 99th percentile; [0] when empty. *)

(** {1 Exporters} *)

val to_json : t -> Obs.Json.t
(** One object: each counter by name; a ["stages"] object of per-stage
    [{count, total_ns, mean_ns, p50_ns, p99_ns}]; a ["tiers"] object of the
    same per tier; a ["sizes"] object of per-shape [{count, total, mean,
    p50, p99}]; and a ["shards"] array of per-shard gauge objects. *)

val sections : t -> (string * Obs.Json.t) list
(** The stats document's summary sections, [cache], [compile] and
    [store], each an object of the numbers declared for it: counters by
    value, per-shard gauges summed over shards (the artifact version takes
    the maximum instead). *)

val to_prometheus : t -> string
(** Prometheus text exposition (format 0.0.4): every counter as
    [disclosure_<name>_total]; the stage and tier histograms as the
    [disclosure_stage_duration_seconds{stage=...}] and
    [disclosure_tier_duration_seconds{tier=...}] families (cumulative
    power-of-two buckets, [le] in seconds), tier decision counts as
    [disclosure_tier_decisions_total{tier=...}]; each batching shape as its
    own [disclosure_<name>] histogram; every gauge as
    [disclosure_shard_<name>{shard="i"}]. *)

val pp_stats : Format.formatter -> Obs.Json.t -> unit
(** The human-readable report of a stats document ([Server.stats_json]) or
    of a bare {!to_json} document: every counter, every histogram member
    (count, mean, p50, p99), every section and every per-shard gauge, each
    found by its declared name. Numbers missing from the document are
    skipped. *)
