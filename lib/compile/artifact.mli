(** Ahead-of-time compiled labeler over a pipeline's view universe.

    [label (compile pipeline) q] is bit-identical to
    [Disclosure.Pipeline.label pipeline q] — same Label.t words, same
    fault-injection trip schedule (memo hits replay Minimize, Dissect,
    then Label once per atom) — at the cost of one dissection plus one
    memo probe per atom instead of one rewriting scan per (atom, view)
    pair. Sole documented divergence: the compiled path burns one budget
    unit per atom where the interpreter burns one per view entry, so it
    is strictly cheaper under tight fuel.

    Queries outside the compiled fragment escape to the interpreted
    labeler and are counted in [stats] — never silently. An artifact
    belongs to one shard (memo tables are not thread-safe); policy reload
    compiles a fresh artifact with a bumped version and swaps it. *)

type t

(** The labeler tier that decided a labeling, for decision provenance.
    Ordered by escalation — whole-query memo hit, per-atom memo hit,
    decision-diagram evaluation, flat matcher scan, escape to the
    interpreted labeler. *)
type tier =
  | Tier_query_memo
  | Tier_atom_memo
  | Tier_diagram
  | Tier_matcher
  | Tier_fallback

val tiers : tier list
(** Every tier, in escalation order. *)

val tier_name : tier -> string
(** ["memo"], ["atom-memo"], ["diagram"], ["matcher"], ["fallback"]. *)

val compile :
  ?version:int -> ?intern_capacity:int -> ?memo_capacity:int -> Disclosure.Pipeline.t -> t

val version : t -> int
val pipeline : t -> Disclosure.Pipeline.t

val intern_query : t -> Cq.Query.t -> int
(** Hash-consed id for the query's (head, body) structure. Equal ids imply
    bit-identical labels; ids are monotone across interner flushes, so a
    stale id never aliases a live one (safe as an LRU cache key). *)

val label_atom :
  ?budget:Cq.Budget.t -> t -> Disclosure.Tagged.atom -> Disclosure.Label.atom_label

val label : ?budget:Cq.Budget.t -> ?id:int -> t -> Cq.Query.t -> Disclosure.Label.t
(** [id], when given, must be [intern_query t q], interned by the caller just
    before (the shard's label-cache key); the query is then not interned a
    second time. *)

type stats = {
  version : int;
  groups : int; (* compiled (relation, arity) groups *)
  diagram_groups : int; (* groups on the diagram tier (rest: matcher tier) *)
  diagram_nodes : int;
  fallbacks : int; (* escapes to the interpreted labeler *)
  atom_hits : int;
  atom_misses : int;
  query_hits : int;
  query_misses : int;
  intern_entries : int;
  intern_capacity : int;
  intern_hits : int;
  intern_misses : int;
  intern_flushes : int;
}

val stats : t -> stats
val fallbacks : t -> int

val last_tier : t -> tier
(** The deciding tier of the most recent {!label} call: the highest tier any
    of the query's atoms escalated to ([Tier_query_memo] when the whole-query
    memo hit). Standalone {!label_atom} calls escalate but do not reset, so
    the value is meaningful per-[label]. Not thread-safe, like the memos. *)
