(* A view atom compiled to a flat instruction program over pattern codes.

   [run] is Rewrite_single.leq_atom with the hashtables compiled away: the
   view's variables become dense scratch slots fixed at compile time, and
   the query side arrives pre-classed as Pattern codes, so theta
   consistency, existential pairing, and cover consistency all reduce to
   int compares against scratch arrays. The equivalence (proven by the
   qcheck property in test_compile) is exact: for every well-formed view
   atom [v] and query atom [q],
     run (compile v) (Pattern.encode_exn q) = Rewrite_single.leq_atom q v. *)

module Value = Relational.Value
module Tagged = Disclosure.Tagged
module Pattern = Disclosure.Pattern

type op =
  | Const_eq of Value.t (* view constant: query must hold an equal constant *)
  | Dist_bind of int (* first occurrence of a view distinguished var: bind slot *)
  | Dist_check of int (* later occurrence: query code must equal the bound one *)
  | Exist_bind of int (* first occurrence of a view existential var *)
  | Exist_check of int

type t = {
  pred : string;
  arity : int;
  ops : op array;
  n_dist : int;
  n_exist : int;
}

let compile (view : Tagged.atom) =
  let dist : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let exist : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let op_of (t : Tagged.term) =
    match t with
    | Tagged.Const v -> Const_eq v
    | Tagged.Var (u, Tagged.Distinguished) -> (
      match Hashtbl.find_opt dist u with
      | Some s -> Dist_check s
      | None ->
        let s = Hashtbl.length dist in
        Hashtbl.add dist u s;
        Dist_bind s)
    | Tagged.Var (w, Tagged.Existential) -> (
      match Hashtbl.find_opt exist w with
      | Some s -> Exist_check s
      | None ->
        let s = Hashtbl.length exist in
        Hashtbl.add exist w s;
        Exist_bind s)
  in
  let ops = Array.of_list (List.map op_of view.Tagged.args) in
  {
    pred = view.Tagged.pred;
    arity = Array.length ops;
    ops;
    n_dist = Hashtbl.length dist;
    n_exist = Hashtbl.length exist;
  }

(* Cover states for a query existential class, mirroring
   Rewrite_single.cover: unset, covered by view distinguished positions,
   or covered by exactly one view existential slot. *)
let cover_unset = -1

let cover_by_dist = -2

exception Fail

let run t (p : Pattern.t) =
  if t.arity <> Pattern.arity p || not (String.equal t.pred p.Pattern.pred) then false
  else begin
    (* Scratch is allocated per run: the arrays are a few words each and
       die in the minor heap; sharing them would tie the matcher to one
       domain for no measurable win (the hot path is the memo above us). *)
    let theta = Array.make (max t.n_dist 1) (-1) in
    let pair = Array.make (max t.n_exist 1) (-1) in
    let cover = Array.make (max t.arity 1) cover_unset in
    let set_cover x c =
      let cur = cover.(x) in
      if cur = cover_unset then cover.(x) <- c else if cur <> c then raise Fail
    in
    (* A distinguished view position accepts any query term, but a query
       existential matched there is covered By_dist. *)
    let covered_by_dist c =
      if Pattern.tag c = Pattern.tag_exist then set_cover (Pattern.cls c) cover_by_dist
    in
    match
      Array.iteri
        (fun i op ->
          let c = p.Pattern.codes.(i) in
          match op with
          | Const_eq v ->
            if
              not
                (Pattern.tag c = Pattern.tag_const
                && Value.equal p.Pattern.consts.(Pattern.cls c) v)
            then raise Fail
          | Dist_bind s ->
            theta.(s) <- c;
            covered_by_dist c
          | Dist_check s ->
            if theta.(s) <> c then raise Fail;
            covered_by_dist c
          | Exist_bind s ->
            if Pattern.tag c <> Pattern.tag_exist then raise Fail;
            pair.(s) <- Pattern.cls c;
            set_cover (Pattern.cls c) s
          | Exist_check s ->
            if Pattern.tag c <> Pattern.tag_exist || pair.(s) <> Pattern.cls c then
              raise Fail;
            set_cover (Pattern.cls c) s)
        t.ops
    with
    | () -> true
    | exception Fail -> false
  end
