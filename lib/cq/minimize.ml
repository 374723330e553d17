(* Folding runs over an int-coded copy of the query: every variable and
   constant gets a dense id once, each atom becomes an int array, and a
   substitution is an array with an undo trail. The search is the greedy one
   of the list-and-[Subst] formulation it replaces, step for step: the same
   removal order, the same candidate order, and a [Budget.tick] at the same
   points, so the folded query and the fuel it spends are identical. *)

type coded = {
  query : Query.t;
  preds : int array;
  args : int array array;
  consts : Relational.Value.t array;
  n_vars : int;
  n_head : int;
}

module Names = Hashtbl.Make (String)

(* Head variables are numbered first, so ids [0 .. n_head - 1] are exactly
   the head's. Constants are coded as [lnot] their id, so every code below
   zero is a constant and two codes are equal iff their terms are. A query
   has few distinct constants and relations; a list scan finds them. *)
let encode (q : Query.t) =
  let vars = Names.create 32 in
  let consts = ref [] and n_consts = ref 0 in
  let preds = ref [] and n_preds = ref 0 in
  let code = function
    | Term.Var x -> (
      match Names.find_opt vars x with
      | Some v -> v
      | None ->
        let v = Names.length vars in
        Names.add vars x v;
        v)
    | Term.Const c -> (
      match List.find_opt (fun (c', _) -> Relational.Value.equal c c') !consts with
      | Some (_, k) -> lnot k
      | None ->
        let k = !n_consts in
        consts := (c, k) :: !consts;
        incr n_consts;
        lnot k)
  in
  let pred_id p =
    match List.find_opt (fun (p', _) -> String.equal p p') !preds with
    | Some (_, id) -> id
    | None ->
      let id = !n_preds in
      preds := (p, id) :: !preds;
      incr n_preds;
      id
  in
  List.iter (fun t -> ignore (code t)) q.head;
  let n_head = Names.length vars in
  let n = List.length q.body in
  let pred_ids = Array.make n 0 and args = Array.make n [||] in
  List.iteri
    (fun k (a : Atom.t) ->
      pred_ids.(k) <- pred_id a.pred;
      let codes = Array.make (List.length a.args) 0 in
      List.iteri (fun i t -> codes.(i) <- code t) a.args;
      args.(k) <- codes)
    q.body;
  let values = Array.make !n_consts (Relational.Value.Int 0) in
  List.iter (fun (c, k) -> values.(k) <- c) !consts;
  { query = q; preds = pred_ids; args; consts = values; n_vars = Names.length vars; n_head }

let unbound = min_int

type search = {
  c : coded;
  budget : Budget.t;
  live : int array; (* [live.(0 .. len - 1)]: the body's atoms, in order *)
  mutable len : int;
  pred_count : int array; (* relation id -> live atoms over it *)
  subst : int array; (* variable id -> code, or [unbound] *)
  trail : int array; (* the variables bound since the search began *)
  mutable top : int;
}

let undo s mark =
  while s.top > mark do
    s.top <- s.top - 1;
    s.subst.(s.trail.(s.top)) <- unbound
  done

(* Extends the substitution so atom [a] maps onto atom [b]; on failure the
   substitution is left as it was. *)
let match_atom s a b =
  let xs = s.c.args.(a) and ts = s.c.args.(b) in
  s.c.preds.(a) = s.c.preds.(b)
  && Array.length xs = Array.length ts
  &&
  let mark = s.top in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length xs do
    let x = xs.(!i) and t = ts.(!i) in
    (if x < 0 then ok := x = t
     else
       let bound = s.subst.(x) in
       if bound = unbound then begin
         s.subst.(x) <- t;
         s.trail.(s.top) <- x;
         s.top <- s.top + 1
       end
       else ok := bound = t);
    incr i
  done;
  if not !ok then undo s mark;
  !ok

(* Removability of atom [i] needs a head-fixing single-atom match onto some
   other atom; checking that first prunes most failing searches. *)
let absorbable s i =
  let found = ref false and p = ref 0 in
  while (not !found) && !p < s.len do
    Budget.tick s.budget;
    let j = s.live.(!p) in
    if j <> i && match_atom s i j then begin
      undo s 0;
      found := true
    end;
    incr p
  done;
  !found

(* A homomorphism from the whole body into the body without atom [i],
   extending the current substitution from the [k]-th atom on. Removing an
   atom relaxes the query, so this is the whole equivalence check; it also
   keeps the reduced query safe, since atom [i]'s head variables already
   occur in the atom [absorbable] matched it onto. *)
let rec embeds s i k = k = s.len || embeds_onto s i k 0

and embeds_onto s i k p =
  p < s.len
  &&
  let b = s.live.(p) in
  if b = i then embeds_onto s i k (p + 1)
  else begin
    Budget.tick s.budget;
    let mark = s.top in
    (match_atom s s.live.(k) b && (embeds s i (k + 1) || (undo s mark; false)))
    || embeds_onto s i k (p + 1)
  end

let removable s p =
  let i = s.live.(p) in
  s.pred_count.(s.c.preds.(i)) >= 2
  && absorbable s i
  &&
  let found = embeds s i 0 in
  undo s 0;
  found

(* The greedy fold: remove the first removable atom, then rescan from the
   start. With [~first_only] it stops after the first removal, which is
   exactly the work [is_minimal] does. *)
let search ~budget ~first_only q =
  let c = encode q in
  let n = Array.length c.args in
  let pred_count = Array.make n 0 in
  Array.iter (fun r -> pred_count.(r) <- pred_count.(r) + 1) c.preds;
  let s =
    {
      c;
      budget;
      live = Array.init n Fun.id;
      len = n;
      pred_count;
      (* Head variables are bound to themselves for good: every
         homomorphism the fold looks for fixes the head. *)
      subst = Array.init c.n_vars (fun v -> if v < c.n_head then v else unbound);
      trail = Array.make c.n_vars 0;
      top = 0;
    }
  in
  let p = ref 0 in
  while !p < s.len do
    if removable s !p then begin
      let r = c.preds.(s.live.(!p)) in
      pred_count.(r) <- pred_count.(r) - 1;
      Array.blit s.live (!p + 1) s.live !p (s.len - !p - 1);
      s.len <- s.len - 1;
      p := if first_only then s.len else 0
    end
    else incr p
  done;
  if s.len = n then c
  else
    let kept = Array.sub s.live 0 s.len in
    let atoms = Array.of_list q.body in
    {
      c with
      query =
        Query.make ~name:q.name ~head:q.head
          ~body:(Array.to_list (Array.map (fun i -> atoms.(i)) kept))
          ();
      preds = Array.map (fun i -> c.preds.(i)) kept;
      args = Array.map (fun i -> c.args.(i)) kept;
    }

let fold ?(budget = Budget.unlimited) q = search ~budget ~first_only:false q

let minimize ?budget q = (fold ?budget q).query

let is_minimal ?(budget = Budget.unlimited) q =
  Array.length (search ~budget ~first_only:true q).args = List.length q.Query.body

(* --- canonical form ---------------------------------------------------- *)

(* The canonical form orders body atoms and renames variables so that any two
   queries equal up to atom reordering and alpha-renaming produce the same
   result. Head variables are pinned first (h0, h1, ... by first occurrence in
   the head — head order is semantically significant and never changes);
   existentials are named e0, e1, ... in order of first appearance in the
   chosen atom order. The atom order itself is the one whose serialized body
   is lexicographically smallest; the search proceeds greedily atom by atom
   and branches only when two candidate atoms serialize identically under the
   names committed so far (locally symmetric atoms), so it is linear on
   asymmetric queries and bounded by [max_nodes] on pathological ones. Atom
   serializations are prefix-free (the closing parenthesis compares below the
   separator), so the greedy-with-tie-branching search is exact. *)

exception Canon_nodes_exhausted

let serialize_atom ~head_name naming next_e (atom : Atom.t) =
  let buf = Buffer.create 32 in
  let adds = ref [] in
  let next = ref next_e in
  Buffer.add_string buf atom.Atom.pred;
  Buffer.add_char buf '(';
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      match t with
      | Term.Const _ -> Term.to_buffer buf t
      | Term.Var v -> (
        match head_name v with
        | Some hn -> Buffer.add_string buf hn
        | None -> (
          match List.assoc_opt v !adds with
          | Some name -> Buffer.add_string buf name
          | None -> (
            match List.assoc_opt v naming with
            | Some name -> Buffer.add_string buf name
            | None ->
              let name = Printf.sprintf "e%d" !next in
              incr next;
              adds := (v, name) :: !adds;
              Buffer.add_string buf name))))
    atom.Atom.args;
  Buffer.add_char buf ')';
  (Buffer.contents buf, List.rev !adds)

let normal_form ?budget ?(max_nodes = 20_000) (q : Query.t) =
  let head_names = Hashtbl.create 8 in
  List.iter
    (fun t ->
      match t with
      | Term.Var v when not (Hashtbl.mem head_names v) ->
        Hashtbl.add head_names v (Printf.sprintf "h%d" (Hashtbl.length head_names))
      | Term.Var _ | Term.Const _ -> ())
    q.head;
  let head_name v = Hashtbl.find_opt head_names v in
  let atoms = Array.of_list q.body in
  let nodes = ref 0 in
  (* Best complete candidate: serialized body, atom order, naming. *)
  let best = ref None in
  (* [exact = false] disables tie branching (greedy fallback once the node
     cap is hit): still deterministic, but no longer guaranteed invariant
     under input atom order on highly symmetric queries. *)
  let rec explore ~exact remaining naming next_e acc_rev =
    (match budget with Some b -> Budget.tick b | None -> ());
    incr nodes;
    if exact && !nodes > max_nodes then raise Canon_nodes_exhausted;
    match remaining with
    | [] ->
      let s = String.concat "," (List.rev_map fst acc_rev) in
      (match !best with
      | Some (bs, _, _) when bs <= s -> ()
      | Some _ | None -> best := Some (s, List.rev_map snd acc_rev, naming))
    | _ ->
      let cands =
        List.map
          (fun i ->
            let s, adds = serialize_atom ~head_name naming next_e atoms.(i) in
            (i, s, adds))
          remaining
      in
      let min_s =
        List.fold_left
          (fun m (_, s, _) -> match m with Some m when m <= s -> Some m | _ -> Some s)
          None cands
        |> Option.get
      in
      let tied = List.filter (fun (_, s, _) -> s = min_s) cands in
      let step (i, s, adds) =
        explore ~exact
          (List.filter (fun j -> j <> i) remaining)
          (naming @ adds)
          (next_e + List.length adds)
          ((s, i) :: acc_rev)
      in
      if exact then List.iter step tied else step (List.hd tied)
  in
  let all = List.init (Array.length atoms) Fun.id in
  (match explore ~exact:true all [] 0 [] with
  | () -> ()
  | exception Canon_nodes_exhausted ->
    best := None;
    explore ~exact:false all [] 0 []);
  match !best with
  | None -> assert false (* the body is non-empty and the search total *)
  | Some (_, order, naming) ->
    let rename v =
      match head_name v with
      | Some hn -> hn
      | None -> (
        match List.assoc_opt v naming with
        | Some n -> n
        | None -> v (* unreachable: every body var is named; head vars are h-named *))
    in
    let body = List.map (fun i -> Atom.rename_vars rename atoms.(i)) order in
    let head = List.map (function Term.Var v -> Term.Var (rename v) | c -> c) q.head in
    Query.make ~name:"Q" ~head ~body ()

let canonicalize ?budget ?max_nodes q = normal_form ?budget ?max_nodes (minimize ?budget q)
