(* Property tests for the canonical query forms of lib/cq/minimize.ml:
   normal forms and canonical forms must be invariant under the syntactic
   variation they claim to absorb, and labeling must be invariant under
   canonicalization — the fact that lets the labeler fold a query before
   labeling it. *)

module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Minimize = Cq.Minimize
module Query = Cq.Query
module Gen = QCheck.Gen

let count = 200

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* A pipeline over the property schema (R/3, S/2) so random queries from
   [Generators.gen_query] hit real views. *)
let pipeline =
  Pipeline.create
    (List.map Helpers.sview
       [
         "VR(x, y, z) :- R(x, y, z)";
         "VR1(x) :- R(x, y, z)";
         "VR23(y, z) :- R(x, y, z)";
         "VS(x, y) :- S(x, y)";
         "VS2(y) :- S(x, y)";
       ])

(* --- random syntactic variants ---------------------------------------- *)

(* A variant of [q] that differs only by body-atom order and an injective
   variable renaming — exactly the variation [normal_form] must absorb. *)
let gen_variant (q : Query.t) : Query.t Gen.t =
  let open Gen in
  let vars = Query.vars q in
  let* shuffled_names = shuffle_l vars in
  let renaming = List.combine vars (List.map (Printf.sprintf "fresh_%s") shuffled_names) in
  let rename v = match List.assoc_opt v renaming with Some v' -> v' | None -> v in
  let* body = shuffle_l (Query.rename_vars rename q).body in
  return (Query.make ~name:"Renamed" ~head:(Query.rename_vars rename q).head ~body ())

let gen_query_with_variant =
  let open Gen in
  let* q = Generators.gen_query in
  let* v = gen_variant q in
  return (q, v)

let arbitrary_query_with_variant =
  QCheck.make
    ~print:(fun (q, v) ->
      Printf.sprintf "(%s, %s)" (Query.to_string q) (Query.to_string v))
    gen_query_with_variant

(* [q] with one body atom duplicated — a redundant atom [minimize] removes,
   which only [canonicalize] (not [normal_form]) must absorb. *)
let gen_with_redundant_atom (q : Query.t) : Query.t Gen.t =
  let open Gen in
  let* i = int_bound (List.length q.body - 1) in
  let dup = List.nth q.body i in
  let* body = shuffle_l (dup :: q.body) in
  return (Query.make ~name:q.name ~head:q.head ~body ())

let gen_query_with_redundant =
  let open Gen in
  let* q = Generators.gen_query in
  let* r = gen_with_redundant_atom q in
  let* v = gen_variant r in
  return (q, v)

let arbitrary_query_with_redundant =
  QCheck.make
    ~print:(fun (q, v) ->
      Printf.sprintf "(%s, %s)" (Query.to_string q) (Query.to_string v))
    gen_query_with_redundant

(* --- properties -------------------------------------------------------- *)

let normal_form_invariant =
  prop "normal_form invariant under reorder + rename" arbitrary_query_with_variant
    (fun (q, v) -> Query.equal (Minimize.normal_form q) (Minimize.normal_form v))

let normal_form_equivalent =
  prop "normal_form is equivalent to its input" Generators.arbitrary_query (fun q ->
      Cq.Containment.equivalent q (Minimize.normal_form q))

let normal_form_idempotent =
  prop "normal_form idempotent" Generators.arbitrary_query (fun q ->
      let n = Minimize.normal_form q in
      Query.equal n (Minimize.normal_form n))

let canonicalize_absorbs_redundancy =
  prop "canonicalize invariant under redundant atom + reorder + rename"
    arbitrary_query_with_redundant (fun (q, v) ->
      Query.equal (Minimize.canonicalize q) (Minimize.canonicalize v))

(* The folding-soundness fact itself: a query, its reordered/renamed
   variant, and its canonical form all label at the same lattice point, so
   labeling the folded query decides exactly like labeling the original. *)
let labeling_invariant =
  prop "labeling invariant under canonicalization" arbitrary_query_with_redundant
    (fun (q, v) ->
      let l = Pipeline.label pipeline q in
      Label.equal l (Pipeline.label pipeline v)
      && Label.equal l (Pipeline.label pipeline (Minimize.canonicalize q))
      && Label.equal l (Pipeline.label pipeline (Minimize.normal_form q)))

let suite =
  [
    normal_form_invariant;
    normal_form_equivalent;
    normal_form_idempotent;
    canonicalize_absorbs_redundancy;
    labeling_invariant;
  ]
