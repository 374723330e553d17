type t = {
  name : string;
  head : Term.t list;
  body : Atom.t list;
}

exception Unsafe of string

let dedup_preserving_order xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let body_vars_of body = dedup_preserving_order (List.concat_map Atom.vars body)

let rec occurs_in_args x = function
  | [] -> false
  | Term.Var y :: rest -> String.equal x y || occurs_in_args x rest
  | Term.Const _ :: rest -> occurs_in_args x rest

let rec occurs_in_body x = function
  | [] -> false
  | (a : Atom.t) :: rest -> occurs_in_args x a.args || occurs_in_body x rest

let make ?(name = "Q") ~head ~body () =
  if body = [] then raise (Unsafe "query body is empty");
  let check_head_var t =
    match t with
    | Term.Var x ->
      if not (occurs_in_body x body) then
        raise (Unsafe (Printf.sprintf "head variable %s does not appear in the body" x))
    | Term.Const _ -> ()
  in
  List.iter check_head_var head;
  { name; head; body }

let head_vars q = dedup_preserving_order (List.filter_map Term.var_name q.head)

let body_vars q = body_vars_of q.body

let existential_vars q =
  let hv = head_vars q in
  List.filter (fun x -> not (List.mem x hv)) (body_vars q)

let vars q = dedup_preserving_order (head_vars q @ body_vars q)

let constants q =
  let head_consts =
    List.filter_map (function Term.Const v -> Some v | Term.Var _ -> None) q.head
  in
  dedup_preserving_order (head_consts @ List.concat_map Atom.constants q.body)

let head_arity q = List.length q.head

let is_boolean q = q.head = []

let is_single_atom q = match q.body with [ _ ] -> true | _ -> false

let rename_vars f q =
  let rename_term = function
    | Term.Var x -> Term.Var (f x)
    | Term.Const _ as t -> t
  in
  {
    q with
    head = List.map rename_term q.head;
    body = List.map (Atom.rename_vars f) q.body;
  }

let freshen ~suffix q = rename_vars (fun x -> x ^ suffix) q

let relations q = dedup_preserving_order (List.map (fun (a : Atom.t) -> a.pred) q.body)

let check_schema schema q =
  let check (a : Atom.t) =
    match Relational.Schema.arity schema a.pred with
    | None -> Error (Printf.sprintf "unknown relation %s" a.pred)
    | Some n when n <> Atom.arity a ->
      Error
        (Printf.sprintf "relation %s has arity %d but atom has %d arguments" a.pred n
           (Atom.arity a))
    | Some _ -> Ok ()
  in
  List.fold_left
    (fun acc a -> match acc with Error _ -> acc | Ok () -> check a)
    (Ok ()) q.body

let compare a b =
  let c = List.compare Term.compare a.head b.head in
  if c <> 0 then c else List.compare Atom.compare a.body b.body

let equal a b = compare a b = 0

let to_string q =
  let b = Buffer.create 256 in
  Buffer.add_string b q.name;
  Buffer.add_char b '(';
  Atom.list_to_buffer Term.to_buffer b q.head;
  Buffer.add_string b ") :- ";
  Atom.list_to_buffer Atom.to_buffer b q.body;
  Buffer.contents b

let pp ppf q = Format.pp_print_string ppf (to_string q)
