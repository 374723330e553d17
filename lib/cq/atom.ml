type t = {
  pred : string;
  args : Term.t list;
}

let make pred args = { pred; args }

let arity a = List.length a.args

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

let vars a =
  dedup_preserving_order (List.filter_map Term.var_name a.args)

let constants a =
  let consts =
    List.filter_map (function Term.Const v -> Some v | Term.Var _ -> None) a.args
  in
  dedup_preserving_order consts

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let equal a b = compare a b = 0

let map_terms f a = { a with args = List.map f a.args }

let rename_vars f a =
  map_terms (function Term.Var x -> Term.Var (f x) | Term.Const _ as t -> t) a

(* [xs] separated by commas, as the query syntax lists arguments and
   atoms. *)
let list_to_buffer add b = function
  | [] -> ()
  | x :: rest ->
    add b x;
    List.iter
      (fun x ->
        Buffer.add_string b ", ";
        add b x)
      rest

let to_buffer b a =
  Buffer.add_string b a.pred;
  Buffer.add_char b '(';
  list_to_buffer Term.to_buffer b a.args;
  Buffer.add_char b ')'

let to_string a =
  let b = Buffer.create 64 in
  to_buffer b a;
  Buffer.contents b

let pp ppf a = Format.pp_print_string ppf (to_string a)
