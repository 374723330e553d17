(* The ahead-of-time compiled labeler.

   [compile] takes the same Pipeline a shard labels with and lowers its
   whole view universe: every view atom becomes a flat matcher program,
   grouped by (relation, arity), with a per-group atom memo keyed by
   canonical patterns on top. An atom-memo miss runs its group's matchers
   once and memoizes the mask. Labeling then costs one fold plus one coded
   split, which numbers each kept atom's pattern straight from the fold's
   int codes (Dissect.map_dissect), and one hash probe per atom on the
   steady state, instead of one Rewrite_single scan per (atom, view) pair.
   No Tagged atom is built unless an atom falls back to the interpreter. A
   repeated query is the shard's label cache's business, keyed by
   [intern_query]; the artifact keeps no per-query memo.

   Equivalence contract: [label] returns a bit-identical Label.t to
   [Pipeline.label] on the same pipeline, including the order and number
   of fault-injection trip points (Minimize and Dissect inside the
   dissection, then one Label trip per atom). The one documented
   divergence is budget accounting: the compiled path burns one fuel unit
   per atom where the interpreter burns one per (atom, view) entry, so
   compiled labeling is strictly cheaper under tight fuel. Queries outside
   the compiled fragment (atoms wider than Pattern.max_arity) escape to
   the interpreted labeler, as the Tagged atom Dissect.tagged builds, and
   are counted in [stats] — the escape is never silent.

   Not thread-safe: an artifact belongs to one shard, like the label
   cache; reload compiles a fresh artifact (version + 1) and swaps it. *)

module Value = Relational.Value
module Tagged = Disclosure.Tagged
module Pattern = Disclosure.Pattern
module Sview = Disclosure.Sview
module Registry = Disclosure.Registry
module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Dissect = Disclosure.Dissect
module Faults = Disclosure.Faults

type group = {
  rel_id : int;
  matchers : (Matcher.t * int) array; (* program, registry bit *)
  memo : Label.atom_label Pattern.Memo.t;
}

(* Which tier of the compiled labeler decided a labeling, for provenance.
   Ordered by escalation: a multi-atom query reports the highest tier any
   of its atoms reached (a memo hit next to an interpreter escape is still
   an escape). *)
type tier =
  | Tier_atom_memo
  | Tier_matcher
  | Tier_fallback
  (* Never produced; servebench's replay still names both (ROADMAP item 2). *)
  | Tier_diagram
  | Tier_query_memo

let tier_rank = function
  | Tier_atom_memo -> 0
  | Tier_matcher -> 1
  | Tier_fallback -> 2
  | Tier_diagram | Tier_query_memo -> -1

let tiers = [ Tier_atom_memo; Tier_matcher; Tier_fallback ]

let tier_name = function
  | Tier_atom_memo -> "atom-memo"
  | Tier_matcher -> "matcher"
  | Tier_fallback -> "fallback"
  | Tier_diagram -> "diagram"
  | Tier_query_memo -> "memo"

type t = {
  pipeline : Pipeline.t;
  registry : Registry.t;
  version : int;
  groups : (string * int, group) Hashtbl.t; (* keyed by (relation, arity) *)
  memo_capacity : int;
  interner : (Cq.Term.t list * Cq.Atom.t list) Intern.t;
  mutable fallbacks : int;
  mutable atom_hits : int;
  mutable atom_misses : int;
  mutable last_tier : tier; (* deciding tier of the most recent [label] *)
}

let compile ?(version = 0) ?(intern_capacity = 65536) ?(memo_capacity = 65536) pipeline =
  if memo_capacity < 1 then invalid_arg "Artifact.compile: memo_capacity must be >= 1";
  let registry = Pipeline.registry pipeline in
  let groups = Hashtbl.create 32 in
  for rid = 0 to Registry.relation_count registry - 1 do
    let rel = Registry.rel_name registry rid in
    (* Views of the same relation can differ in arity; a query atom only
       ever matches views of its own arity, so each arity compiles to its
       own group. Views wider than the fragment are dropped here: any query
       atom wide enough to match them is itself outside the fragment and
       escapes to the interpreter before group lookup. *)
    let by_arity : (int, Registry.entry list) Hashtbl.t = Hashtbl.create 4 in
    Array.iter
      (fun (e : Registry.entry) ->
        let a = Tagged.atom_arity e.view.Sview.atom in
        if a <= Pattern.max_arity then
          Hashtbl.replace by_arity a
            (e :: Option.value ~default:[] (Hashtbl.find_opt by_arity a)))
      (Registry.entries_for registry rel);
    Hashtbl.iter
      (fun arity entries ->
        let matchers =
          Array.of_list
            (List.rev_map
               (fun (e : Registry.entry) -> (Matcher.compile e.view.Sview.atom, e.bit))
               entries)
        in
        Hashtbl.add groups (rel, arity) { rel_id = rid; matchers; memo = Pattern.Memo.create 64 })
      by_arity
  done;
  {
    pipeline;
    registry;
    version;
    groups;
    memo_capacity;
    interner = Intern.create ~capacity:intern_capacity;
    fallbacks = 0;
    atom_hits = 0;
    atom_misses = 0;
    last_tier = Tier_atom_memo;
  }

let version t = t.version

let pipeline t = t.pipeline

(* Hash-cons on the query's structure (head terms, body atoms): structural
   equality of (head, body) implies bit-identical labels. The query's
   *name* field does not participate, so Q(x) :- R(x) and P(x) :- R(x)
   share an id; variable names do (they are part of the term structure),
   so an alpha-renamed copy interns separately — a sound over-split, never
   an unsound merge. *)
let intern_query t (q : Cq.Query.t) =
  Intern.intern t.interner (q.Cq.Query.head, q.Cq.Query.body)

let scan g p =
  Array.fold_left
    (fun mask (prog, bit) -> if Matcher.run prog p then mask lor (1 lsl bit) else mask)
    0 g.matchers

let escalate t tier =
  if tier_rank tier > tier_rank t.last_tier then t.last_tier <- tier

(* Outside the fragment: interpreted labeler, which trips Faults.Label
   itself, so the per-atom fault schedule stays one trip either way. *)
let fallback ~budget t atom =
  t.fallbacks <- t.fallbacks + 1;
  escalate t Tier_fallback;
  Pipeline.label_atom ~budget t.pipeline atom

let label_pattern ~budget t (p : Pattern.t) =
  Faults.trip Faults.Label;
  match Hashtbl.find_opt t.groups (p.Pattern.pred, Pattern.arity p) with
  | None ->
    (* No views at this arity; the interpreter still ticks once per atom
       of a relation that has views at all. *)
    if Registry.rel_id t.registry p.Pattern.pred <> None then Cq.Budget.tick budget;
    Label.top_atom
  | Some g -> (
    Cq.Budget.tick budget;
    let key = Pattern.memo_key p in
    match Pattern.Memo.find_opt g.memo key with
    | Some w ->
      t.atom_hits <- t.atom_hits + 1;
      escalate t Tier_atom_memo;
      w
    | None ->
      t.atom_misses <- t.atom_misses + 1;
      escalate t Tier_matcher;
      let mask = scan g p in
      let w = if mask = 0 then Label.top_atom else Label.make_atom ~rel_id:g.rel_id ~mask in
      if Pattern.Memo.length g.memo >= t.memo_capacity then Pattern.Memo.reset g.memo;
      Pattern.Memo.add g.memo key w;
      w)

let label_atom ?(budget = Cq.Budget.unlimited) t (atom : Tagged.atom) =
  match Pattern.encode atom with
  | None -> fallback ~budget t atom
  | Some p -> label_pattern ~budget t p

let label_split ?(budget = Cq.Budget.unlimited) t atom p =
  if Pattern.arity p > Pattern.max_arity then fallback ~budget t (Dissect.tagged atom p)
  else label_pattern ~budget t p

(* A query none of whose atoms reaches a compiled group (every atom ⊤, or
   no atoms) escalates nothing and reports the lowest produced tier. *)
let label ?(budget = Cq.Budget.unlimited) t q =
  t.last_tier <- Tier_atom_memo;
  Array.of_list (Dissect.map_dissect ~budget (label_split ~budget t) q)

let last_tier t = t.last_tier

type stats = {
  version : int;
  groups : int;
  fallbacks : int;
  atom_hits : int;
  atom_misses : int;
  intern_entries : int;
  intern_capacity : int;
  intern_hits : int;
  intern_misses : int;
  intern_flushes : int;
}

let stats (t : t) =
  {
    version = t.version;
    groups = Hashtbl.length t.groups;
    fallbacks = t.fallbacks;
    atom_hits = t.atom_hits;
    atom_misses = t.atom_misses;
    intern_entries = Intern.length t.interner;
    intern_capacity = Intern.capacity t.interner;
    intern_hits = Intern.hits t.interner;
    intern_misses = Intern.misses t.interner;
    intern_flushes = Intern.flushes t.interner;
  }

let fallbacks (t : t) = t.fallbacks
