(** Query minimization (folding, [9] in the paper): computes the {e core} of a
    conjunctive query — an equivalent query with the fewest body atoms.

    This is the "folding" subroutine used by the paper's [Dissect] algorithm
    (Section 5.2): it removes redundant atoms so that only atoms contributing
    information survive dissection. The optional [budget] bounds the
    underlying homomorphism searches. *)

val minimize : ?budget:Budget.t -> Query.t -> Query.t
(** Returns an equivalent query whose body is a minimal subset of the input's
    body, in the input's atom order, with the input's name and head. The
    result is unique up to variable renaming.

    The fold is greedy: it scans the body in order, removes the first atom
    whose relation occurs at least twice and onto which the query folds (a
    head-fixing single-atom match onto another atom, then a homomorphism of
    the whole body into the rest), and rescans from the start. Fuel
    contract: one [Budget.tick] per atom visited by the single-atom match
    scan and one per candidate atom tried by the homomorphism search, so
    the spend — and the point where a tight budget raises — is a function
    of the query alone, step for step that of the list-and-{!Subst}
    formulation kept in the test suite as its reference.
    @raise Budget.Exhausted *)

val is_minimal : ?budget:Budget.t -> Query.t -> bool
(** True when no proper subset of the body yields an equivalent query. Spends
    what {!minimize} spends up to its first removal.
    @raise Budget.Exhausted *)

(** {1 Int-coded queries}

    The fold's working form, shared with [Disclosure.Dissect] so a cold
    labeling codes each query once. *)

type coded = private {
  query : Query.t;
  preds : int array;  (** per body atom: its relation, as a dense per-query id *)
  args : int array array;
      (** per body atom, per position: a variable id [>= 0], or [lnot] a
          constant id; two codes are equal iff their terms are *)
  consts : Relational.Value.t array;  (** constant id -> value *)
  n_vars : int;
  n_head : int;  (** variables [0 .. n_head - 1] are exactly the head's *)
}

val encode : Query.t -> coded
(** The query itself, coded. *)

val fold : ?budget:Budget.t -> Query.t -> coded
(** {!minimize}, coded: [(fold q).query = minimize q], with the same spend.
    @raise Budget.Exhausted *)

(** {1 Canonical forms}

    Used by the serving layer's label cache: two queries with the same
    canonical form are guaranteed label-equivalent, so a label computed once
    can be replayed for every syntactic variant. *)

val normal_form : ?budget:Budget.t -> ?max_nodes:int -> Query.t -> Query.t
(** A syntactic normal form: body atoms reordered canonically and variables
    alpha-renamed to [h0, h1, ...] (head variables, by first occurrence in
    the head) and [e0, e1, ...] (existentials, by first occurrence in the
    canonical atom order); the head name is normalized to ["Q"]. Invariant
    under atom reordering and injective variable renaming: [normal_form q =
    normal_form q'] whenever [q'] is [q] with body atoms permuted and
    variables renamed. The result is equivalent to the input.

    The canonical atom order is found by a greedy lexicographic search that
    branches only on locally symmetric atoms; [max_nodes] (default 20000)
    caps the search, after which a deterministic greedy fallback is used
    (still a function of the input, but no longer order-invariant on
    pathologically symmetric queries — callers treating the result as a cache
    key lose only hit rate, never soundness).
    @raise Budget.Exhausted *)

val canonicalize : ?budget:Budget.t -> ?max_nodes:int -> Query.t -> Query.t
(** [normal_form] of the {!minimize}d query: the canonical representative of
    the query's equivalence class up to minimization, atom order, and variable
    names. Two queries equal up to redundant atoms, reordering, and renaming
    canonicalize identically.
    @raise Budget.Exhausted *)
