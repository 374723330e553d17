module Smap = Map.Make (String)

type t = Term.t Smap.t

let empty = Smap.empty

let is_empty = Smap.is_empty

let find x s = Smap.find_opt x s

let bind x t s =
  match Smap.find_opt x s with
  | None -> Some (Smap.add x t s)
  | Some existing -> if Term.equal existing t then Some s else None

let bind_exn x t s =
  match bind x t s with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Subst.bind_exn: conflicting binding for %s" x)

let of_list l = List.fold_left (fun s (x, t) -> bind_exn x t s) empty l

let bindings s = Smap.bindings s

let apply_term s = function
  | Term.Var x as t -> ( match Smap.find_opt x s with Some t' -> t' | None -> t)
  | Term.Const _ as t -> t

let apply_atom s a = Atom.map_terms (apply_term s) a

let domain s = List.map fst (Smap.bindings s)

let pp ppf s =
  let pp_binding ppf (x, t) = Format.fprintf ppf "%s ↦ %a" x Term.pp t in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_binding)
    (bindings s)
