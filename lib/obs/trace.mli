(** Per-query tracing for the serving layer: spans with monotonic
    start/duration, head/tail sampling, per-track lock-free ring buffers,
    and a built-in slow-query log.

    A {e span} is one timed operation — a whole query, one pipeline stage
    inside it, the mailbox wait before it — with a name, a track (the shard
    / worker-domain index), and string attributes (principal, cache level,
    refusal reason, label width, journal bytes). Spans from one query share
    a trace id and nest under a root span via parent links and containment:
    every child lies fully inside its root's [start, start+dur] window, so
    exporters that nest by time (Chrome's trace viewer) render the same
    hierarchy the ids describe.

    {b Sampling} is head + tail. Head: at {!query_begin} the scope is marked
    sampled on every [N]-th query per track ([~sample:N]; [0] disables head
    sampling entirely). Tail: at {!query_end} the query is retained anyway
    if it was refused or ran at least [slow_ms] — so refusals and slow
    queries {e always} reach the trace no matter how aggressive the head
    rate, which is exactly the slow-query log. Unsampled scopes accumulate
    spans in a plain per-scope list and drop them wholesale at
    {!query_end}; no ring traffic, no clock reads beyond the ones the
    metrics layer already pays for.

    {b Concurrency.} A recorder is shared by all worker domains; each track
    must be written by at most one domain at a time (the shard's worker),
    which makes the ring single-writer: a slot store followed by a head
    store, no CAS. {!spans} may be called from any domain while workers are
    writing and returns a racy-but-coherent snapshot — every slot it reads
    is a complete span (slots hold immutable records), but the set of spans
    is whatever the rings held at the instant each slot was read. Exact
    results require quiescent workers. *)

type span = {
  trace_id : int;  (** Shared by all spans of one query. *)
  span_id : int;  (** Unique within the recorder. *)
  parent : int option;  (** Root spans have no parent. *)
  track : int;  (** Shard / worker-domain index. *)
  name : string;  (** ["query"], ["wait"], a {!Metrics.stage} name, … *)
  start_ns : int64;  (** Monotonic ({!Disclosure.Mclock.now_ns}). *)
  dur_ns : int;  (** Never negative. *)
  attrs : (string * string) list;
}

type t
(** A recorder: sampling policy plus one bounded span ring per track. *)

val create : ?buffer:int -> ?sample:int -> ?slow_ms:float -> tracks:int -> unit -> t
(** [buffer] (default [4096]) is the per-track ring capacity in spans,
    rounded up to a power of two; when full, the oldest spans are
    overwritten. [sample] (default [1] = every query) head-samples one query
    in [N] per track; [0] disables head sampling so only tail-retained
    (refused / slow) queries survive. [slow_ms], when given, is the
    slow-query threshold.
    @raise Invalid_argument on [tracks < 1], a negative [sample] or
    [buffer], or a negative [slow_ms]. *)

val sample_rate : t -> int

val slow_ns : t -> int
(** The slow threshold in nanoseconds; [0] when none was configured. *)

val tracks : t -> int

val epoch_ns : t -> int64
(** The recorder's creation time on the monotonic clock. Exporters print
    span timestamps relative to it so the numbers stay small and a trace's
    time origin is the serve session, not the machine boot. *)

(** {1 Recording}

    All functions below must be called from the domain that owns [track] —
    they mutate scope state and the track's ring without synchronization. *)

type scope
(** One in-flight query (or maintenance operation) being traced. *)

val query_begin :
  t ->
  track:int ->
  ?name:string ->
  ?start_ns:int64 ->
  ?force:bool ->
  ?ctx:int * int ->
  principal:string ->
  unit ->
  scope
(** Open a scope. [name] (default ["query"]) names the root span.
    [start_ns] (default now) backdates the root — the serving layer passes
    the enqueue timestamp so the mailbox wait is inside the query span.
    [force] (default false) marks the scope sampled regardless of the head
    rate; maintenance operations (checkpoints) use it. [ctx], when given, is
    an inherited [(trace_id, parent_span_id)] from another process (a wire
    frame's trace-context field): the scope joins that trace instead of
    starting its own, and its root — still parentless locally, so
    {!roots} / {!slow_log} semantics are unchanged — carries the link as a
    [parent_span] attribute. Out-of-range tracks are clamped into range
    rather than raised on — tracing must never turn a valid query into a
    crash. *)

val sampled : scope -> bool
(** Whether the scope was head-sampled (or forced). Tail retention can still
    keep an unsampled scope at {!query_end}. *)

val scope_ids : scope -> int * int
(** The scope's [(trace_id, root_span_id)], assigned on first call (fresh
    ids, or the inherited trace id when the scope has a [ctx]) and cached —
    {!query_end} stamps the retained root with the same pair, so ids read
    here (to propagate on a wire frame) and ids in the exported trace agree.
    Calling this on a scope that ends up dropped wastes two ids; ids are
    unique, not dense, so that is harmless. *)

val annotate : scope -> string -> string -> unit
(** Attach an attribute to the scope's root span. Later values win on
    duplicate keys. *)

val record : ?attrs:(string * string) list -> scope -> name:string -> seconds:float -> unit
(** Add a child span that {e ends now} and lasted [seconds] (clamped to
    [0] when negative) — the shape of an observation arriving from
    {!Disclosure.Service}'s [observe] callback, which reports at stage
    exit. *)

val record_interval :
  ?attrs:(string * string) list -> scope -> name:string -> start_ns:int64 -> end_ns:int64 -> unit
(** Add a child span with explicit endpoints (the mailbox wait, whose start
    predates the scope's processing). Negative intervals are clamped to
    zero length. *)

val query_end : scope -> outcome:string -> unit
(** Close the scope: decide retention (head-sampled, or [outcome] is not
    ["answered"], or the root ran at least the slow threshold), stamp the
    root with [outcome] and — when over the threshold — [slow=true], clamp
    children into the root's window, and push retained spans to the track's
    ring. Idempotent: a second call is a no-op. *)

(** {1 Reading} *)

val spans : t -> span list
(** Every span currently held, all tracks, sorted by start time (roots
    before their children on ties). Racy-but-coherent while workers run. *)

val roots : t -> span list
(** Just the parentless spans, sorted by start time. *)

val retained : t -> int
(** Total scopes retained (pushed to a ring) since [create] — monotone,
    summed over tracks, may exceed what the bounded rings still hold. *)

val dropped : t -> int
(** Total scopes discarded at {!query_end} (unsampled, fast, answered). *)

val slow_log : t -> span list
(** The tail-retention view: root spans that were refused or over the slow
    threshold, sorted by start time. *)

val pp_slow_log : Format.formatter -> t -> unit
(** Human-readable slow-query log: one line per {!slow_log} entry with
    relative timestamp, track, principal, duration, and outcome. *)
