type t =
  | Const of Relational.Value.t
  | Var of string

let compare a b =
  match a, b with
  | Const x, Const y -> Relational.Value.compare x y
  | Var x, Var y -> String.compare x y
  | Const _, Var _ -> -1
  | Var _, Const _ -> 1

let equal a b = compare a b = 0

let is_var = function Var _ -> true | Const _ -> false

let is_const = function Const _ -> true | Var _ -> false

let var_name = function Var x -> Some x | Const _ -> None

let to_buffer b = function
  | Const v -> Relational.Value.to_buffer b v
  | Var x -> Buffer.add_string b x

let to_string = function Const v -> Relational.Value.to_string v | Var x -> x

let pp ppf t = Format.pp_print_string ppf (to_string t)
