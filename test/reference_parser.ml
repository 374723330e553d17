(* Reference model for the query syntax (Cq.Parser, Cq.Query.to_string):
   the tokenize-first parser — a token list, then recursive descent over
   it — and the [Format] printer that the one-pass parser and the buffer
   printer must reproduce byte for byte: the same [Ok] query or the same
   [Error] message on every input, the same text for every query. The
   one intended difference: an integer literal past [max_int] raises
   [Failure "int_of_string"] here, where Cq.Parser returns an error.
   Each token carries its start offset, which a syntax error reports (an
   unsafe query reports offset 0). Test-only. *)

module Term = Cq.Term
module Atom = Cq.Atom
module Query = Cq.Query

exception Parse_error of string

type token =
  | Tident of string (* uppercase-initial: predicate name *)
  | Tvar of string (* lowercase-initial: variable *)
  | Tconst of Relational.Value.t
  | Tlparen
  | Trparen
  | Tcomma
  | Tturnstile
  | Teof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let start = ref 0 in
  let emit t = tokens := (t, !start) :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    start := !i;
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then begin emit Tlparen; incr i end
    else if c = ')' then begin emit Trparen; incr i end
    else if c = ',' then begin emit Tcomma; incr i end
    else if (c = ':' || c = '<') && !i + 1 < n && s.[!i + 1] = '-' then begin
      emit Tturnstile;
      i := !i + 2
    end
    else if c = '\'' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '\'' do incr j done;
      if !j >= n then fail !i "unterminated string literal";
      emit (Tconst (Relational.Value.Str (String.sub s (!i + 1) (!j - !i - 1))));
      i := !j + 1
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && s.[!i + 1] >= '0' && s.[!i + 1] <= '9')
    then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      emit (Tconst (Relational.Value.Int (int_of_string (String.sub s !i (!j - !i)))));
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      let word = String.sub s !i (!j - !i) in
      (match word with
      | "true" -> emit (Tconst (Relational.Value.Bool true))
      | "false" -> emit (Tconst (Relational.Value.Bool false))
      | _ ->
        if word.[0] >= 'A' && word.[0] <= 'Z' then emit (Tident word)
        else emit (Tvar word));
      i := !j
    end
    else fail !i (Printf.sprintf "unexpected character %c" c)
  done;
  start := n;
  emit Teof;
  List.rev !tokens

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with [] -> Teof | (t, _) :: _ -> t

(* A syntax error at the current token. *)
let syntax st msg = fail (match st.toks with [] -> 0 | (_, pos) :: _ -> pos) msg

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok what =
  if peek st = tok then advance st else syntax st ("expected " ^ what)

let parse_term st =
  match peek st with
  | Tvar x ->
    advance st;
    Term.Var x
  | Tconst v ->
    advance st;
    Term.Const v
  | Tident x -> syntax st ("unexpected predicate name " ^ x ^ " in argument position")
  | Tlparen | Trparen | Tcomma | Tturnstile | Teof -> syntax st "expected a term"

let parse_term_list st =
  expect st Tlparen "(";
  if peek st = Trparen then begin
    advance st;
    []
  end
  else
    let rec loop acc =
      let t = parse_term st in
      match peek st with
      | Tcomma ->
        advance st;
        loop (t :: acc)
      | Trparen ->
        advance st;
        List.rev (t :: acc)
      | Tlparen | Tturnstile | Teof | Tident _ | Tvar _ | Tconst _ ->
        syntax st "expected , or ) in argument list"
    in
    loop []

let parse_atom st =
  match peek st with
  | Tident pred ->
    advance st;
    Atom.make pred (parse_term_list st)
  | Tvar x -> syntax st ("relation names must start with an uppercase letter: " ^ x)
  | Tconst _ | Tlparen | Trparen | Tcomma | Tturnstile | Teof ->
    syntax st "expected an atom"

let parse_query st =
  let name =
    match peek st with
    | Tident name ->
      advance st;
      name
    | Tvar x -> syntax st ("query names must start with an uppercase letter: " ^ x)
    | Tconst _ | Tlparen | Trparen | Tcomma | Tturnstile | Teof ->
      syntax st "expected a query head"
  in
  let head = parse_term_list st in
  expect st Tturnstile ":-";
  let rec loop acc =
    let a = parse_atom st in
    match peek st with
    | Tcomma ->
      advance st;
      loop (a :: acc)
    | Teof | Tident _ | Tvar _ | Tconst _ | Tlparen | Trparen | Tturnstile ->
      List.rev (a :: acc)
  in
  let body = loop [] in
  try Query.make ~name ~head ~body () with Query.Unsafe msg -> fail 0 ("unsafe query: " ^ msg)

let run p s =
  let st = { toks = tokenize s } in
  let result = p st in
  (match peek st with
  | Teof -> ()
  | Tident _ | Tvar _ | Tconst _ | Tlparen | Trparen | Tcomma | Tturnstile ->
    syntax st "trailing input");
  result

let query_exn s = run parse_query s

let query s = try Ok (query_exn s) with Parse_error msg -> Error msg

let atom_exn s = run parse_atom s

let atom s = try Ok (atom_exn s) with Parse_error msg -> Error msg

(* --- the Format printer ---------------------------------------------------- *)

let pp_value ppf = function
  | Relational.Value.Int x -> Format.fprintf ppf "%d" x
  | Relational.Value.Str s -> Format.fprintf ppf "'%s'" s
  | Relational.Value.Bool b -> Format.fprintf ppf "%b" b

let pp_term ppf = function
  | Term.Const v -> pp_value ppf v
  | Term.Var x -> Format.pp_print_string ppf x

let pp_list pp =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp

let pp_atom ppf (a : Atom.t) = Format.fprintf ppf "%s(%a)" a.pred (pp_list pp_term) a.args

let pp_query ppf (q : Query.t) =
  Format.fprintf ppf "%s(%a) :- %a" q.name (pp_list pp_term) q.head (pp_list pp_atom) q.body

let to_string q = Format.asprintf "%a" pp_query q
