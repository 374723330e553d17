(** The [Dissect] algorithm (Section 5.2): converts an arbitrary conjunctive
    query into a set of single-atom tagged queries whose combined disclosure
    label equals the query's label.

    Dissection first computes a folding (minimization) of the query, then
    splits the folded body into its atoms, promoting to distinguished any
    existential variable that occurs in at least two atoms — a join attribute
    whose values any set of single-atom views answering the join must
    reveal (Example 5.4). [Dissect] is itself a disclosure labeler from
    multi-atom to single-atom queries; composed with single-atom labeling it
    labels arbitrary conjunctive queries.

    There is one split, {!map_split}, over the fold's int codes: it numbers
    each atom's {!Pattern} straight from them, dedups on it, and maps the
    kept atoms. {!dissect} maps them to {!Tagged} atoms; the compiled
    labeler maps them to labels through its pattern-keyed memo and builds
    a Tagged atom only for an atom wider than {!Pattern.max_arity}. *)

val map_split : (Cq.Atom.t -> Pattern.t -> 'a) -> Cq.Minimize.coded -> 'a list
(** [map_split f c] applies [f] to each atom of [c]'s body that is not
    iso-equivalent to an earlier one, with its pattern (join variables
    promoted to distinguished), in body order. *)

val map_dissect :
  ?budget:Cq.Budget.t -> (Cq.Atom.t -> Pattern.t -> 'a) -> Cq.Query.t -> 'a list
(** {!map_split} over the folded query. The {!Faults} stage [Minimize]
    trips before the fold and [Dissect] after it.
    @raise Cq.Budget.Exhausted *)

val tagged : Cq.Atom.t -> Pattern.t -> Tagged.atom
(** The single-atom tagged query of a kept atom: its terms, each variable
    of the kind its pattern gives. *)

val dissect : ?budget:Cq.Budget.t -> Cq.Query.t -> Tagged.atom list
(** [map_dissect tagged]. Results are deduplicated up to {!Tagged.iso_equivalent} and returned in
    the folded body's atom order. The optional [budget] bounds the folding
    step's homomorphism searches; the {!Faults} stages [Minimize] and
    [Dissect] trip at the respective boundaries.
    @raise Cq.Budget.Exhausted *)

val dissect_no_fold : Cq.Query.t -> Tagged.atom list
(** Dissection without the initial minimization step. Labels computed from it
    are still sound but may overestimate disclosure on redundant queries;
    exposed for the benchmark's ablation. *)
