(* The split runs over the fold's int codes (Cq.Minimize.coded): variable
   ids index flat arrays, and each atom is numbered into its Pattern — per
   position a kind tag plus the variable's class by first occurrence in
   the atom, or the constant's class, with the constant values beside.
   Two atoms of a query get equal patterns iff they are iso-equivalent, so
   keeping the first atom of each pattern is [Glb.dedup] without canonical
   copies. The split hands each kept atom and its pattern to a function:
   the compiled labeler probes its memo with the pattern, and [dissect]
   builds the Tagged atom. *)

let map_split f (c : Cq.Minimize.coded) =
  let n_vars = c.n_vars in
  (* Existentials occurring in two or more atoms become distinguished: a
     join attribute the single-atom views must reveal. [stamp] makes each
     atom count a variable once. *)
  let atoms_with = Array.make n_vars 0 in
  let stamp = Array.make n_vars (-1) in
  Array.iteri
    (fun k codes ->
      Array.iter
        (fun x ->
          if x >= c.n_head && stamp.(x) <> k then begin
            stamp.(x) <- k;
            atoms_with.(x) <- atoms_with.(x) + 1
          end)
        codes)
    c.args;
  let dist x = x < c.n_head || atoms_with.(x) >= 2 in
  let value k = c.consts.(k) in
  let scratch = Pattern.scratch n_vars in
  let rec go k kept = function
    | [] -> []
    | (a : Cq.Atom.t) :: rest ->
      let p = Pattern.number scratch ~pred:a.pred ~dist ~value c.args.(k) in
      if List.exists (Pattern.equal p) kept then go (k + 1) kept rest
      else
        let y = f a p in
        y :: go (k + 1) (p :: kept) rest
  in
  go 0 [] c.query.body

let tagged (a : Cq.Atom.t) (p : Pattern.t) =
  let args =
    List.mapi
      (fun i (t : Cq.Term.t) ->
        match t with
        | Cq.Term.Const v -> Tagged.Const v
        | Cq.Term.Var x ->
          Tagged.Var
            ( x,
              if Pattern.tag p.codes.(i) = Pattern.tag_dist then Tagged.Distinguished
              else Tagged.Existential ))
      a.args
  in
  { Tagged.pred = a.pred; args }

let map_dissect ?budget f q =
  Faults.trip Faults.Minimize;
  let folded = Cq.Minimize.fold ?budget q in
  Faults.trip Faults.Dissect;
  map_split f folded

let dissect ?budget q = map_dissect ?budget tagged q

let dissect_no_fold q = map_split tagged (Cq.Minimize.encode q)
