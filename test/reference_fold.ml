(* Reference model for the fold (Cq.Minimize) and the split
   (Disclosure.Dissect): the straightforward formulation over term lists,
   [Cq.Subst] maps and [Glb.dedup]'s canonical copies that the int-coded
   implementations must reproduce step for step — same folded query, same
   fuel spent, same single-atom views in the same order. Test-only. *)

module Query = Cq.Query
module Atom = Cq.Atom
module Term = Cq.Term
module Subst = Cq.Subst
module Budget = Cq.Budget
module Homomorphism = Cq.Homomorphism
module Tagged = Disclosure.Tagged

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

(* Atom [n] can only fold away if a head-fixing match maps it onto another
   atom; one tick per atom the scan visits. *)
let absorbable ~budget (q : Query.t) n =
  let atom_n = List.nth q.body n in
  let head_identity =
    List.fold_left
      (fun s x -> Subst.bind_exn x (Term.Var x) s)
      Subst.empty (Query.head_vars q)
  in
  List.exists
    (fun (i, b) ->
      Budget.tick budget;
      i <> n && Option.is_some (Homomorphism.match_atom head_identity atom_n b))
    (List.mapi (fun i a -> (i, a)) q.body)

let try_remove ~budget (q : Query.t) n =
  if not (absorbable ~budget q n) then None
  else
    match remove_nth n q.body with
    | [] -> None
    | body' -> (
      match Query.make ~name:q.name ~head:q.head ~body:body' () with
      | q' -> if Homomorphism.exists ~budget ~from:q ~into:q' () then Some q' else None
      | exception Query.Unsafe _ -> None)

(* Only atoms whose relation occurs at least twice can fold away. *)
let removable_indices (q : Query.t) =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (a : Atom.t) ->
      Hashtbl.replace counts a.pred
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.pred)))
    q.body;
  List.mapi (fun i (a : Atom.t) -> (i, Hashtbl.find counts a.pred >= 2)) q.body
  |> List.filter_map (fun (i, keep) -> if keep then Some i else None)

let rec minimize ?(budget = Budget.unlimited) q =
  let rec loop = function
    | [] -> q
    | i :: rest -> (
      match try_remove ~budget q i with
      | Some q' -> minimize ~budget q'
      | None -> loop rest)
  in
  loop (removable_indices q)

let is_minimal ?(budget = Budget.unlimited) (q : Query.t) =
  List.for_all (fun i -> Option.is_none (try_remove ~budget q i)) (removable_indices q)

(* The split: tag, promote every existential occurring in two or more
   atoms, and drop atoms iso-equivalent to an earlier one. *)
let split (q : Query.t) =
  let tagged = Tagged.of_query q in
  let occurrences : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (fun (x, k) ->
          if k = Tagged.Existential then
            Hashtbl.replace occurrences x
              (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences x)))
        (Tagged.atom_vars a))
    tagged;
  let promote (t : Tagged.term) =
    match t with
    | Tagged.Var (x, Tagged.Existential)
      when Option.value ~default:0 (Hashtbl.find_opt occurrences x) >= 2 ->
      Tagged.Var (x, Tagged.Distinguished)
    | Tagged.Const _ | Tagged.Var _ -> t
  in
  Disclosure.Glb.dedup
    (List.map (fun (a : Tagged.atom) -> { a with Tagged.args = List.map promote a.Tagged.args })
       tagged)

let dissect ?budget q = split (minimize ?budget q)
