(** An LRU cache with an eviction counter. O(1) find and add (hash
    table + intrusive recency list). Keys are any structural type —
    the shards key on hash-consed int query ids from the compiled
    artifact's interner; string keys remain supported.

    {b Not thread-safe.} The serving layer gives each shard its own cache;
    only the shard's claim holder ever touches it, so no lock is needed.
    Hits and misses are counted by the caller ({!Metrics}), which outlives
    the caches a reload replaces. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Bumps the entry to most-recently-used on hit. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not affect recency. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most-recently-used. At capacity, the
    least-recently-used entry is evicted first. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int

val promotions : ('k, 'v) t -> int
(** Recency-list moves: how many times {!find} or {!add} relocated an
    existing entry to the front. A repeated hit on the entry already at the
    head does {e not} count — that fast path must not churn the list. *)
