(** Lock-free serving-layer metrics: atomic event counters plus per-stage
    latency histograms with power-of-two nanosecond buckets. All operations
    are safe to call concurrently from any domain; reads ([count],
    [histogram], [pp], [to_json]) are racy-but-coherent snapshots (each cell
    is read atomically, the set of cells is not). *)

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

(** Per-shard runtime gauges (newest sample wins, no accumulation), fed by
    each shard's rounds from [Gc.quick_stat] — plus the journal
    watermark gauges, refreshed per decision by the shard (and exactly at
    every barrier and stats scrape), and the follower-side replication lag. *)
type gauge =
  | Gc_minor_collections
  | Gc_major_collections
  | Gc_promoted_words  (** Words promoted minor → major (truncated to int). *)
  | Journal_segment  (** Active journal segment index of the shard. *)
  | Journal_offset  (** Committed bytes in the shard's active segment. *)
  | Journal_flushes
      (** Journal flushes issued by the shard's service: one per decision
          without group commit, one per drained batch with it — the
          fsync-amortization benchmarks divide this by decisions. *)
  | Replication_lag
      (** On a follower: bytes of committed primary journal this node has
          not yet applied (set by the replay loop). On a primary with a
          replication source: the worst last-reported lag across known
          followers (set as pulls are served). *)
  | Compile_version
      (** Version of the shard's live AOT-compiled labeling artifact; bumped
          by every online policy reload. *)
  | Compile_fallbacks
      (** Queries the compiled labeler escaped to the interpreter for
          (outside the compiled fragment). [0] on the standard workload. *)
  | Intern_entries  (** Live entries in the shard's hash-consing table. *)
  | Diagram_nodes
      (** Total decision-diagram nodes in the shard's compiled artifact. *)
  | Resident_principals
      (** Principals whose monitors are in the shard's resident table ([0]
          without a tiered store: gauges report the store's view). *)
  | Spilled_principals  (** Principals represented by a spill record on disk. *)
  | Fault_ins  (** Successful fault-ins since the store was created. *)
  | Spill_bytes  (** Current size of the shard's spill file. *)

(** The labeler tier that decided a query, for per-tier decision counters
    and latency histograms — {!Compile.Artifact.tier} plus the two
    serving-layer outcomes the artifact never sees. Fed by the shard with
    the whole submit latency (labeling + decision + journal), so tier
    histograms show what each tier buys end to end. *)
type tier =
  | Tier_cache  (** Label-cache hit: no labeling ran at all. *)
  | Tier_query_memo  (** Whole-query memo hit in the compiled artifact. *)
  | Tier_atom_memo  (** Every atom served by the per-group atom memo. *)
  | Tier_diagram  (** At least one atom evaluated a decision diagram. *)
  | Tier_matcher  (** At least one atom fell to the flat matcher scan. *)
  | Tier_fallback  (** At least one atom escaped to the interpreted labeler. *)
  | Tier_interpreter  (** No compiled artifact: the interpreted pipeline labeled. *)

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
    stage's histogram. Negative samples are clamped to [0] — they cannot
    underflow the bucket index. *)

val time : t -> stage -> (unit -> 'a) -> 'a
(** Runs the thunk and {!record}s its duration (monotonic clock, never
    negative), whether it returns or raises. *)

val record_tier : t -> tier -> float -> unit
(** One decision's end-to-end latency, attributed to its deciding tier. *)

val record_size : t -> size -> int -> unit
(** One batching-shape observation (a batch's decision count, a wakeup's
    frame count). Negative values are clamped to [0]. *)

type histogram = {
  count : int;
  total_ns : int;
  buckets : int array;  (** [buckets.(i)] counts observations in [[2{^i}, 2{^i+1}) ns]. *)
}

val histogram : t -> stage -> histogram

val tier_histogram : t -> tier -> histogram

val size_histogram : t -> size -> histogram
(** [total_ns] holds the dimensionless sum and [buckets.(i)] counts values
    in [[2{^i}, 2{^i+1})] — the histogram shape is shared, the unit is not. *)

val mean_ns : histogram -> float

val percentile_ns : histogram -> float -> int
(** [percentile_ns h 0.99] is an upper bound (the enclosing bucket's upper
    edge) on the 99th-percentile latency in nanoseconds; [0] when empty. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object: each counter by name, a ["stages"] object mapping
    stage names to [{count, total_ns, mean_ns, p50_ns, p99_ns}], a
    ["tiers"] object of per-tier [{count, total_ns, mean_ns, p99_ns}], a
    ["sizes"] object of per-shape [{count, total, mean, p99}], and a
    ["shards"] array of per-shard gauge objects. *)

val to_prometheus : t -> string
(** Prometheus text exposition (format 0.0.4): every counter as
    [disclosure_<name>_total], every stage histogram as a
    [disclosure_stage_duration_seconds{stage="..."}] family member with
    cumulative power-of-two buckets ([le] in seconds), [_sum], and
    [_count], per-tier decisions as [disclosure_tier_decisions_total] and
    latency as [disclosure_tier_duration_seconds{tier="..."}], the batching
    shapes as [disclosure_group_commit_batch_size] /
    [disclosure_pipeline_window_depth] value histograms, and every gauge as
    [disclosure_shard_<name>{shard="i"}]. *)
