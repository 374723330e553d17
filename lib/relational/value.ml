type t =
  | Int of int
  | Str of string
  | Bool of bool

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int _, (Str _ | Bool _) -> -1
  | (Str _ | Bool _), Int _ -> 1
  | Str _, Bool _ -> -1
  | Bool _, Str _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash (0, x)
  | Str s -> Hashtbl.hash (1, s)
  | Bool b -> Hashtbl.hash (2, b)

let to_buffer b = function
  | Int x -> Buffer.add_string b (Int.to_string x)
  | Str s ->
    Buffer.add_char b '\'';
    Buffer.add_string b s;
    Buffer.add_char b '\''
  | Bool x -> Buffer.add_string b (if x then "true" else "false")

let to_string = function
  | Int x -> Int.to_string x
  | Str s -> "'" ^ s ^ "'"
  | Bool x -> if x then "true" else "false"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then String.sub s 1 (n - 2)
  else s

let of_string s =
  let s = strip_quotes s in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match s with
    | "true" -> Bool true
    | "false" -> Bool false
    | _ -> Str s)
