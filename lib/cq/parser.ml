exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_digit c = c >= '0' && c <= '9'

let rec skip_digits s i = if i < String.length s && is_digit s.[i] then skip_digits s (i + 1) else i

let rec skip_word s i =
  if i < String.length s && is_ident_char s.[i] then skip_word s (i + 1) else i

let rec skip_spaces s i =
  if i < String.length s then
    match s.[i] with ' ' | '\t' | '\n' | '\r' -> skip_spaces s (i + 1) | _ -> i
  else i

(* The closing quote of the string literal opening at [i], or [-1]. *)
let rec closing_quote s i =
  if i >= String.length s then -1 else if s.[i] = '\'' then i else closing_quote s (i + 1)

exception Out_of_range

(* The value of the integer literal [s.[i..j)], accumulated negatively so
   that [min_int] fits; [Out_of_range] where [int_of_string] would fail. *)
let int_literal s i j =
  let neg = s.[i] = '-' in
  let rec go acc k =
    if k >= j then acc
    else
      let d = Char.code s.[k] - 48 in
      if acc < (min_int + d) / 10 then raise Out_of_range else go ((acc * 10) - d) (k + 1)
  in
  let acc = go 0 (if neg then i + 1 else i) in
  if neg then acc else if acc = min_int then raise Out_of_range else -acc

(* --- the lexer: one token at a time, on a cursor ------------------------- *)

type kind =
  | Eof
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Ident  (** Uppercase-initial word: a predicate name. *)
  | Var  (** Any other word but [true] / [false]. *)
  | Str  (** A quoted string literal. *)
  | Int  (** An integer literal; its value is in [int]. *)
  | True
  | False

(* The current token is [s.[start..stop)], of class [kind]. *)
type cursor = {
  s : string;
  mutable kind : kind;
  mutable start : int;
  mutable stop : int;
  mutable int : int;
}

let set cur kind stop =
  cur.kind <- kind;
  cur.stop <- stop

let is_word s i j w =
  j - i = String.length w
  &&
  let rec eq k = k >= j - i || (s.[i + k] = w.[k] && eq (k + 1)) in
  eq 0

let unexpected i c = fail i (Printf.sprintf "unexpected character %c" c)

(* Lexes the token at or after [i]; raises the lexical errors. *)
let lex cur i =
  let s = cur.s in
  let i = skip_spaces s i in
  cur.start <- i;
  if i >= String.length s then set cur Eof i
  else
    let next_is c = i + 1 < String.length s && s.[i + 1] = c in
    let number () =
      let j = skip_digits s (i + 1) in
      (match int_literal s i j with
      | v -> cur.int <- v
      | exception Out_of_range -> fail i "integer literal out of range");
      set cur Int j
    in
    match s.[i] with
    | '(' -> set cur Lparen (i + 1)
    | ')' -> set cur Rparen (i + 1)
    | ',' -> set cur Comma (i + 1)
    | (':' | '<') as c -> if next_is '-' then set cur Turnstile (i + 2) else unexpected i c
    | '\'' ->
      let j = closing_quote s (i + 1) in
      if j < 0 then fail i "unterminated string literal";
      set cur Str (j + 1)
    | '0' .. '9' -> number ()
    | '-' -> if i + 1 < String.length s && is_digit s.[i + 1] then number () else unexpected i '-'
    | ('a' .. 'z' | 'A' .. 'Z' | '_') as c ->
      let j = skip_word s i in
      if is_word s i j "true" then set cur True j
      else if is_word s i j "false" then set cur False j
      else if c >= 'A' && c <= 'Z' then set cur Ident j
      else set cur Var j
    | c -> unexpected i c

let advance cur = lex cur cur.stop

let word cur = String.sub cur.s cur.start (cur.stop - cur.start)

(* --- recursive descent ---------------------------------------------------- *)

(* A syntax error at offset [pos]. Every lexical error wins over every
   syntax error, wherever each sits, so the rest of the input is lexed
   first: the input before the cursor already lexed cleanly, and a lexical
   error after it is raised here instead. *)
let syntax_at pos cur msg =
  while cur.kind <> Eof do
    advance cur
  done;
  fail pos msg

(* A syntax error at the current token. *)
let syntax cur msg = syntax_at cur.start cur msg

let term cur =
  let t =
    match cur.kind with
    | Var -> Term.Var (word cur)
    | Str -> Term.Const (Relational.Value.Str (String.sub cur.s (cur.start + 1) (cur.stop - cur.start - 2)))
    | Int -> Term.Const (Relational.Value.Int cur.int)
    | True -> Term.Const (Relational.Value.Bool true)
    | False -> Term.Const (Relational.Value.Bool false)
    | Ident -> syntax cur ("unexpected predicate name " ^ word cur ^ " in argument position")
    | Lparen | Rparen | Comma | Turnstile | Eof -> syntax cur "expected a term"
  in
  advance cur;
  t

let term_list cur =
  if cur.kind <> Lparen then syntax cur "expected (";
  advance cur;
  if cur.kind = Rparen then begin
    advance cur;
    []
  end
  else
    let rec loop () =
      let t = term cur in
      match cur.kind with
      | Comma ->
        advance cur;
        t :: loop ()
      | Rparen ->
        advance cur;
        [ t ]
      | Lparen | Turnstile | Eof | Ident | Var | Str | Int | True | False ->
        syntax cur "expected , or ) in argument list"
    in
    loop ()

let atom cur =
  match cur.kind with
  | Ident ->
    let pred = word cur in
    advance cur;
    Atom.make pred (term_list cur)
  | Var -> syntax cur ("relation names must start with an uppercase letter: " ^ word cur)
  | Str | Int | True | False | Lparen | Rparen | Comma | Turnstile | Eof ->
    syntax cur "expected an atom"

let query cur =
  let name =
    match cur.kind with
    | Ident ->
      let name = word cur in
      advance cur;
      name
    | Var -> syntax cur ("query names must start with an uppercase letter: " ^ word cur)
    | Str | Int | True | False | Lparen | Rparen | Comma | Turnstile | Eof ->
      syntax cur "expected a query head"
  in
  let head = term_list cur in
  if cur.kind <> Turnstile then syntax cur "expected :-";
  advance cur;
  let rec body () =
    let a = atom cur in
    if cur.kind = Comma then begin
      advance cur;
      a :: body ()
    end
    else [ a ]
  in
  let body = body () in
  (* Unsafety belongs to the whole query, not to one token. *)
  try Query.make ~name ~head ~body ()
  with Query.Unsafe msg -> syntax_at 0 cur ("unsafe query: " ^ msg)

let run p s =
  let cur = { s; kind = Eof; start = 0; stop = 0; int = 0 } in
  lex cur 0;
  let result = p cur in
  if cur.kind <> Eof then syntax cur "trailing input";
  result

let query_exn s = run query s

let query s = try Ok (query_exn s) with Parse_error msg -> Error msg

let atom_exn s = run atom s

let atom s = try Ok (atom_exn s) with Parse_error msg -> Error msg

let queries s =
  let lines = String.split_on_char '\n' s in
  let parse_line acc line =
    match acc with
    | Error _ -> acc
    | Ok qs ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then acc
      else (
        match query line with
        | Ok q -> Ok (q :: qs)
        | Error e -> Error (Printf.sprintf "%s (in %S)" e line))
  in
  Result.map List.rev (List.fold_left parse_line (Ok []) lines)
