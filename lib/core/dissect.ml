(* The split runs over the fold's int codes (Cq.Minimize.coded): variable
   ids index flat arrays, and atoms are compared up to renaming through an
   int key per atom — the relation id, then per position a kind tag plus
   the variable's class by first occurrence in the atom, or the constant's
   id. Two atoms get equal keys iff they are iso-equivalent, so keeping the
   first atom of each key is [Glb.dedup] without canonical copies. *)

module Keys = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b

  let hash = Array.fold_left (fun h c -> (h * 31) + c) 0
end)

let tag_const = 0

let tag_dist = 1

let tag_exist = 2

let split (c : Cq.Minimize.coded) =
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
  let distinguished x = x < c.n_head || atoms_with.(x) >= 2 in
  let seen = Keys.create 16 in
  let cls = Array.make n_vars 0 in
  Array.fill stamp 0 n_vars (-1);
  let keep k codes =
    let key = Array.make (Array.length codes + 1) c.preds.(k) in
    let next = ref 0 in
    Array.iteri
      (fun i x ->
        key.(i + 1) <-
          (if x < 0 then (lnot x lsl 2) lor tag_const
           else begin
             if stamp.(x) <> k then begin
               stamp.(x) <- k;
               cls.(x) <- !next;
               incr next
             end;
             (cls.(x) lsl 2) lor if distinguished x then tag_dist else tag_exist
           end))
      codes;
    if Keys.mem seen key then false
    else begin
      Keys.add seen key ();
      true
    end
  in
  let rec go k = function
    | [] -> []
    | (a : Cq.Atom.t) :: rest ->
      if keep k c.args.(k) then
        let codes = c.args.(k) in
        let args =
          List.mapi
            (fun i (t : Cq.Term.t) ->
              match t with
              | Cq.Term.Const v -> Tagged.Const v
              | Cq.Term.Var x ->
                Tagged.Var
                  (x, if distinguished codes.(i) then Tagged.Distinguished else Tagged.Existential))
            a.args
        in
        { Tagged.pred = a.pred; args } :: go (k + 1) rest
      else go (k + 1) rest
  in
  go 0 c.query.body

let dissect ?budget q =
  Faults.trip Faults.Minimize;
  let folded = Cq.Minimize.fold ?budget q in
  Faults.trip Faults.Dissect;
  split folded

let dissect_no_fold q = split (Cq.Minimize.encode q)
