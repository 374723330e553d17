(** Ahead-of-time compiled labeler over a pipeline's view universe.

    [label (compile pipeline) q] is bit-identical to
    [Disclosure.Pipeline.label pipeline q] — same Label.t words, same
    fault-injection trip schedule (Minimize, Dissect, then Label once per
    atom) — at the cost of one fold, one coded split and one memo probe
    per atom instead of one rewriting scan per (atom, view) pair; an
    atom-memo miss runs the flat matchers of the atom's (relation, arity)
    group once. The split numbers each atom's pattern straight from the
    fold's int codes ({!Disclosure.Dissect.map_dissect}), so a Tagged atom
    is built only for an atom that falls back to the interpreter.
    Whole queries are not memoized here: a repeat is served by the
    shard's label cache, keyed by {!intern_query}. Sole documented
    divergence: the compiled path burns one budget unit per atom where the
    interpreter burns one per view entry, so it is strictly cheaper under
    tight fuel.

    Queries outside the compiled fragment escape to the interpreted
    labeler and are counted in [stats] — never silently. An artifact
    belongs to one shard (its memo tables are not thread-safe); policy reload
    compiles a fresh artifact with a bumped version and swaps it. *)

type t

(** The labeler tier that decided a labeling, for decision provenance.
    Ordered by escalation — per-atom memo hit, flat matcher scan, escape
    to the interpreted labeler. *)
type tier =
  | Tier_atom_memo
  | Tier_matcher
  | Tier_fallback
  | Tier_diagram
      (** Never produced: the retired decision-diagram tier. Kept, after
          the produced tiers, because servebench's replay still names it
          (ROADMAP item 2). *)
  | Tier_query_memo
      (** Never produced: the retired whole-query memo. Kept, last, for
          the same reason as [Tier_diagram]. *)

val tiers : tier list
(** Every tier that is produced, in escalation order (no [Tier_diagram],
    no [Tier_query_memo]). *)

val tier_name : tier -> string
(** ["atom-memo"], ["matcher"], ["fallback"]; ["diagram"] and ["memo"]
    for the retired [Tier_diagram] and [Tier_query_memo]. *)

val compile :
  ?version:int -> ?intern_capacity:int -> ?memo_capacity:int -> Disclosure.Pipeline.t -> t

val version : t -> int
val pipeline : t -> Disclosure.Pipeline.t

val intern_query : t -> Cq.Query.t -> int
(** Hash-consed id for the query's (head, body) structure: the shard's
    label-cache key. Equal ids imply bit-identical labels; ids are monotone
    across interner flushes, so a stale id never aliases a live one (safe
    as an LRU cache key). {!label} does not intern. *)

val label_atom :
  ?budget:Cq.Budget.t -> t -> Disclosure.Tagged.atom -> Disclosure.Label.atom_label
(** One single-atom tagged query, encoded with
    {!Disclosure.Pattern.encode_exn}. *)

val label_split :
  ?budget:Cq.Budget.t ->
  t ->
  Cq.Atom.t ->
  Disclosure.Pattern.t ->
  Disclosure.Label.atom_label
(** One atom of {!Disclosure.Dissect.map_split}, by its pattern: what
    {!label} does per kept atom. Only an atom wider than
    {!Disclosure.Pattern.max_arity} is turned into a Tagged atom, for the
    interpreted labeler. *)

val label : ?budget:Cq.Budget.t -> t -> Cq.Query.t -> Disclosure.Label.t

type stats = {
  version : int;
  groups : int; (* compiled (relation, arity) groups *)
  fallbacks : int; (* escapes to the interpreted labeler *)
  atom_hits : int;
  atom_misses : int;
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
    of the query's atoms escalated to. {!label} resets it to the lowest
    produced tier, [Tier_atom_memo], so a query whose atoms all reach no
    compiled group (a relation without views: a ⊤ atom) reports
    [Tier_atom_memo]; the value is always one of {!tiers}. Standalone
    {!label_atom} calls escalate but do not reset, so the value is
    meaningful per-[label]. Not thread-safe, like the memos. *)
