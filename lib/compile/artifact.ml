(* The ahead-of-time compiled labeler.

   [compile] takes the same Pipeline a shard labels with and lowers its
   whole view universe: every view atom becomes a flat matcher program,
   every (relation, arity) group becomes a decision diagram over pattern
   codes (or stays on the matcher tier when the diagram would blow the
   node budget), and two memo layers sit on top — a per-group atom memo
   keyed by canonical patterns and a whole-query memo keyed by hash-consed
   query ids. Labeling then costs one dissection plus one hash probe per
   atom on the steady state, instead of one Rewrite_single scan per
   (atom, view) pair.

   Equivalence contract: [label] returns a bit-identical Label.t to
   [Pipeline.label] on the same pipeline, including the order and number
   of fault-injection trip points (memo hits replay the interpreter's
   Minimize / Dissect / Label-per-atom schedule). The one documented
   divergence is budget accounting: the compiled path burns one fuel unit
   per atom where the interpreter burns one per (atom, view) entry, so
   compiled labeling is strictly cheaper under tight fuel. Queries outside
   the compiled fragment (atoms wider than Pattern.max_arity, or a
   defensive missing diagram edge) escape to the interpreted labeler and
   are counted in [stats] — the escape is never silent.

   Not thread-safe: an artifact belongs to one shard, like the label
   cache; reload compiles a fresh artifact (version + 1) and swaps it. *)

module Value = Relational.Value
module Tagged = Disclosure.Tagged
module Sview = Disclosure.Sview
module Registry = Disclosure.Registry
module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Dissect = Disclosure.Dissect
module Faults = Disclosure.Faults

type group = {
  rel_id : int;
  matchers : (Matcher.t * int) array; (* program, registry bit *)
  diagram : Diagram.t option; (* None: matcher tier (node budget exceeded) *)
  memo : Label.atom_label Pattern.Memo.t;
}

(* Which tier of the compiled labeler decided a labeling, for provenance.
   Ordered by escalation: a multi-atom query reports the highest tier any
   of its atoms reached (a memo hit next to an interpreter escape is still
   an escape). *)
type tier =
  | Tier_query_memo
  | Tier_atom_memo
  | Tier_diagram
  | Tier_matcher
  | Tier_fallback

let tier_rank = function
  | Tier_query_memo -> 0
  | Tier_atom_memo -> 1
  | Tier_diagram -> 2
  | Tier_matcher -> 3
  | Tier_fallback -> 4

let tiers = [ Tier_query_memo; Tier_atom_memo; Tier_diagram; Tier_matcher; Tier_fallback ]

let tier_name = function
  | Tier_query_memo -> "memo"
  | Tier_atom_memo -> "atom-memo"
  | Tier_diagram -> "diagram"
  | Tier_matcher -> "matcher"
  | Tier_fallback -> "fallback"

type t = {
  pipeline : Pipeline.t;
  registry : Registry.t;
  version : int;
  groups : (string * int, group) Hashtbl.t; (* keyed by (relation, arity) *)
  memo_capacity : int;
  interner : (Cq.Term.t list * Cq.Atom.t list) Intern.t;
  query_memo : (int, Label.t) Hashtbl.t;
  mutable fallbacks : int;
  mutable atom_hits : int;
  mutable atom_misses : int;
  mutable query_hits : int;
  mutable query_misses : int;
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
        let diagram = Diagram.build ~views:matchers ~arity () in
        Hashtbl.add groups (rel, arity)
          { rel_id = rid; matchers; diagram; memo = Pattern.Memo.create 64 })
      by_arity
  done;
  {
    pipeline;
    registry;
    version;
    groups;
    memo_capacity;
    interner = Intern.create ~capacity:intern_capacity;
    query_memo = Hashtbl.create 256;
    fallbacks = 0;
    atom_hits = 0;
    atom_misses = 0;
    query_hits = 0;
    query_misses = 0;
    last_tier = Tier_query_memo;
  }

let version t = t.version

let pipeline t = t.pipeline

(* Hash-cons on the query's structure (head terms, body atoms): structural
   equality of (head, body) implies bit-identical labels. The query's
   *name* field does not participate, so Q(x) :- R(x) and P(x) :- R(x)
   share an id; variable names do (they are part of the term structure),
   so an alpha-renamed copy interns separately — a sound over-split, never
   an unsound merge. A flush of the interner orphans every outstanding id,
   so the query memo resets with it — stale entries would never be read
   again, only pin memory. *)
let intern_query t (q : Cq.Query.t) =
  let before = Intern.flushes t.interner in
  let id = Intern.intern t.interner (q.Cq.Query.head, q.Cq.Query.body) in
  if Intern.flushes t.interner <> before then Hashtbl.reset t.query_memo;
  id

let scan g p =
  Array.fold_left
    (fun mask (prog, bit) -> if Matcher.run prog p then mask lor (1 lsl bit) else mask)
    0 g.matchers

let escalate t tier =
  if tier_rank tier > tier_rank t.last_tier then t.last_tier <- tier

let label_atom ?(budget = Cq.Budget.unlimited) t (atom : Tagged.atom) =
  match Pattern.encode atom with
  | None ->
    (* Outside the fragment: interpreted labeler, which trips Faults.Label
       itself, so the per-atom fault schedule stays one trip either way. *)
    t.fallbacks <- t.fallbacks + 1;
    escalate t Tier_fallback;
    Pipeline.label_atom ~budget t.pipeline atom
  | Some p -> (
    Faults.trip Faults.Label;
    match Registry.rel_id t.registry atom.Tagged.pred with
    | None -> Label.top_atom
    | Some rel_id -> (
      Cq.Budget.tick budget;
      match Hashtbl.find_opt t.groups (p.Pattern.pred, Pattern.arity p) with
      | None -> Label.top_atom (* relation has views, none at this arity *)
      | Some g -> (
        let key = Pattern.memo_key p in
        match Pattern.Memo.find_opt g.memo key with
        | Some w ->
          t.atom_hits <- t.atom_hits + 1;
          escalate t Tier_atom_memo;
          w
        | None ->
          t.atom_misses <- t.atom_misses + 1;
          let mask =
            match g.diagram with
            | Some d -> (
              match Diagram.eval d p with
              | Some m ->
                escalate t Tier_diagram;
                m
              | None ->
                (* Unreachable for encoded patterns; a construction bug
                   degrades to the exact matcher scan, counted. *)
                t.fallbacks <- t.fallbacks + 1;
                escalate t Tier_fallback;
                scan g p)
            | None ->
              escalate t Tier_matcher;
              scan g p
          in
          let w = if mask = 0 then Label.top_atom else Label.make_atom ~rel_id ~mask in
          if Pattern.Memo.length g.memo >= t.memo_capacity then Pattern.Memo.reset g.memo;
          Pattern.Memo.add g.memo key w;
          w)))

let label ?(budget = Cq.Budget.unlimited) ?id t q =
  t.last_tier <- Tier_query_memo;
  let id = match id with Some id -> id | None -> intern_query t q in
  match Hashtbl.find_opt t.query_memo id with
  | Some lbl ->
    (* Replay the interpreter's fault schedule so armed faults fire at the
       same points whether or not the memo hits. *)
    Faults.trip Faults.Minimize;
    Faults.trip Faults.Dissect;
    Array.iter (fun _ -> Faults.trip Faults.Label) lbl;
    t.query_hits <- t.query_hits + 1;
    Array.copy lbl
  | None ->
    t.query_misses <- t.query_misses + 1;
    let atoms = Dissect.dissect ~budget q in
    let lbl = Array.of_list (List.map (fun a -> label_atom ~budget t a) atoms) in
    Hashtbl.add t.query_memo id (Array.copy lbl);
    lbl

let last_tier t = t.last_tier

type stats = {
  version : int;
  groups : int;
  diagram_groups : int;
  diagram_nodes : int;
  fallbacks : int;
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

let stats (t : t) =
  let diagram_groups = ref 0 in
  let diagram_nodes = ref 0 in
  Hashtbl.iter
    (fun _ g ->
      match g.diagram with
      | Some d ->
        incr diagram_groups;
        diagram_nodes := !diagram_nodes + Diagram.node_count d
      | None -> ())
    t.groups;
  {
    version = t.version;
    groups = Hashtbl.length t.groups;
    diagram_groups = !diagram_groups;
    diagram_nodes = !diagram_nodes;
    fallbacks = t.fallbacks;
    atom_hits = t.atom_hits;
    atom_misses = t.atom_misses;
    query_hits = t.query_hits;
    query_misses = t.query_misses;
    intern_entries = Intern.length t.interner;
    intern_capacity = Intern.capacity t.interner;
    intern_hits = Intern.hits t.interner;
    intern_misses = Intern.misses t.interner;
    intern_flushes = Intern.flushes t.interner;
  }

let fallbacks (t : t) = t.fallbacks
