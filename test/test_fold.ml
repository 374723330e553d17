(* Differential property: the int-coded fold and split (Cq.Minimize,
   Disclosure.Dissect) against the list-and-Subst reference model
   (Reference_fold). Per query: the same folded query (atoms, order, name,
   head), the same fuel spent, a refusal at exactly the same fuel values,
   and the same single-atom views in the same order. *)

module Budget = Cq.Budget
module Query = Cq.Query
module Gen = QCheck.Gen

let count = 300

(* Fuel spent by [f] under a budget large enough never to run out. *)
let spend f =
  let budget = Budget.create ~fuel:max_int () in
  let result = f budget in
  (result, max_int - Option.get (Budget.remaining_fuel budget))

let outcome f fuel =
  match f (Budget.create ~fuel ()) with
  | r -> Some r
  | exception Budget.Exhausted Budget.Fuel -> None

let agrees q =
  let reference, ref_spent = spend (fun budget -> Reference_fold.minimize ~budget q) in
  let folded, spent = spend (fun budget -> Cq.Minimize.minimize ~budget q) in
  let same_fold = folded = reference && spent = ref_spent in
  (* The spend is a step count, so under every smaller fuel both must
     refuse, and under the exact spend both must finish. *)
  let same_cutoff =
    List.for_all
      (fun fuel ->
        outcome (fun budget -> Reference_fold.minimize ~budget q) fuel
        = outcome (fun budget -> Cq.Minimize.minimize ~budget q) fuel)
      (List.init (ref_spent + 1) Fun.id)
  in
  let same_minimal =
    spend (fun budget -> Reference_fold.is_minimal ~budget q)
    = spend (fun budget -> Cq.Minimize.is_minimal ~budget q)
  in
  let same_split =
    Reference_fold.dissect q = Disclosure.Dissect.dissect q
    && Reference_fold.split q = Disclosure.Dissect.dissect_no_fold q
  in
  same_fold && same_cutoff && same_minimal && same_split

let prop name arb =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb agrees)

(* The cold-label stream's shape: Facebook-schema queries of up to 15 atoms
   joined on a shared uid. *)
let querygen =
  QCheck.make ~print:Query.to_string
    (Gen.map
       (fun seed -> Workload.Querygen.generate (Workload.Querygen.create ~seed ()) ~max_subqueries:5)
       Gen.nat)

(* Verbatim duplicate atoms and one constant repeated across positions: the
   duplicates fold, and constants must match only themselves. *)
let duplicated =
  let open Gen in
  let term =
    frequency
      [
        (3, return (Cq.Term.Const (Relational.Value.Int 1)));
        (1, return (Cq.Term.Const (Relational.Value.Str "a")));
        (6, map (fun i -> Cq.Term.Var Generators.var_names.(i)) (int_bound 3));
      ]
  in
  let atom =
    let* pred, arity = oneofl Generators.preds in
    map (Cq.Atom.make pred) (list_repeat arity term)
  in
  let gen =
    let* atoms = list_size (int_range 1 4) atom in
    let* copies = list_size (int_range 1 3) (oneofl atoms) in
    let* body = shuffle_l (atoms @ copies) in
    let vars = List.sort_uniq String.compare (List.concat_map Cq.Atom.vars body) in
    let* picks = list_repeat (List.length vars) bool in
    let head =
      List.filteri (fun i _ -> List.nth picks i) vars |> List.map (fun v -> Cq.Term.Var v)
    in
    return (Query.make ~name:"D" ~head ~body ())
  in
  QCheck.make ~print:Query.to_string gen

let suite =
  [
    prop "fold and split ≡ reference: Querygen cold-label stream" querygen;
    prop "fold and split ≡ reference: R/S queries" Generators.arbitrary_query;
    prop "fold and split ≡ reference: duplicate atoms, repeated constants" duplicated;
  ]
