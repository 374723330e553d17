(* The one-pass parser and the buffer printer against their reference
   formulations (Reference_parser): the same [Ok] query or the same
   [Error] message on printed queries, on those texts damaged by random
   insertions, deletions and truncations, and on a table of corner cases;
   the same bytes from the buffer printers of queries, atoms and terms,
   from their [pp], and from the [Format] printers. *)

module Parser = Cq.Parser
module Query = Cq.Query
module Term = Cq.Term
module Atom = Cq.Atom
module Value = Relational.Value

let reference p s =
  match p s with
  | v -> `Ok v
  | exception Reference_parser.Parse_error msg -> `Error msg
  | exception Failure _ -> `Overflow

(* [Some why] when the two parsers disagree on [s]. *)
let disagreement s =
  let compare_with p_new p_ref =
    match (p_new s, reference p_ref s) with
    | Ok q, `Ok q' when q = q' -> None
    | Error m, `Error m' when String.equal m m' -> None
    | Error m, `Overflow when String.ends_with ~suffix:": integer literal out of range" m -> None
    | Ok _, _ -> Some "the parser accepts"
    | Error m, _ -> Some ("the parser says " ^ m)
  in
  match compare_with Parser.query Reference_parser.query_exn with
  | Some why -> Some why
  | None -> compare_with Parser.atom Reference_parser.atom_exn

let check_agrees s =
  match disagreement s with
  | None -> true
  | Some why -> QCheck.Test.fail_reportf "on %S %s, unlike the reference" s why

let querygen_text =
  QCheck.Gen.map
    (fun seed ->
      Cq.Query.to_string
        (Workload.Querygen.generate (Workload.Querygen.create ~seed ()) ~max_subqueries:3))
    QCheck.Gen.small_nat

let printed_text =
  QCheck.Gen.(
    oneof [ map Query.to_string Generators.gen_query; querygen_text ])

(* Bytes that matter to the lexer, and then any byte. *)
let gen_byte =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl (List.of_seq (String.to_seq "()',:-<_ \tQRxy0915tf\"!")));
        (1, char);
      ])

let damage =
  QCheck.Gen.(
    let* text = printed_text in
    let n = String.length text in
    let* edits = int_range 1 3 in
    let rec go text k =
      if k = 0 then return text
      else
        let n = String.length text in
        let* pos = int_bound n in
        let* what = int_bound 2 in
        let* c = gen_byte in
        let text =
          match what with
          | 0 -> String.sub text 0 pos ^ String.make 1 c ^ String.sub text pos (n - pos)
          | 1 when pos < n -> String.sub text 0 pos ^ String.sub text (pos + 1) (n - pos - 1)
          | _ -> String.sub text 0 pos
        in
        go text (k - 1)
    in
    if n = 0 then return text else go text edits)

let test_printed_texts () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"parser ≡ reference on printed queries"
       (QCheck.make ~print:Fun.id printed_text)
       check_agrees)

let test_damaged_texts () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:5000 ~name:"parser ≡ reference on damaged queries"
       (QCheck.make ~print:Fun.id damage)
       check_agrees)

let corner_cases =
  [
    "";
    "   ";
    "Q(x) <- R(x)";
    "Q(x) :- R(x, -3)";
    "Q(x) :- R(x, -0), S(-4611686018427387904)";
    "Q(x) :- R(x, 4611686018427387903)";
    "Q(x) :- R(x, 4611686018427387904)";
    "Q(x) :- R(x, -4611686018427387905)";
    "Q(x) :- R(x, 007)";
    "Q(x) :- R(x, true, false)";
    "Q(true) :- R(true)";
    "true(x) :- R(x)";
    "Q(x) :- true(x)";
    "Q(x) :- R(x, 'unterminated)";
    "Q(x) :- R(x, 'a b, c')";
    "Q(x) :- R(x, '')";
    "Q(x) :- R(x) trailing";
    "Q(x) :- R(x) S(y)";
    "Q(z) :- R(x)";
    "Q(z) :- R(x) trailing";
    "Q(z) :- R(x) 'unterminated";
    "q(x) :- R(x)";
    "Q(x) :- r(x)";
    "Q(x) :- R(x";
    "Q(x) :-";
    "Q(x) :- R(x),";
    "Q() :- R(x)";
    "Q(x) : R(x)";
    "Q(x) < R(x)";
    "Q(x) :- R(x, y) , S(y)\n";
    "Q(_x) :- R(_x)";
    "Q(x) :- R(S)";
    "Q(x) :- R(x)(";
    "Q(x, ) :- R(x)";
    "Q(x) :- R(x) # comment";
    "Q(x) :- R(x, - 3)";
    "Q(x) :- R(x, 3abc)";
    "Q x :- R(x)";
    "Q(x) :- 42";
    "Q(x) :- R(x, 99999999999999999999)";
    "Q(x) :- R(x, 99999999999999999999, 'unterminated";
    "Q(x) :- R(x, 'a', 99999999999999999999) !";
  ]

let test_corner_cases () =
  List.iter
    (fun s ->
      match disagreement s with
      | None -> ()
      | Some why -> Alcotest.failf "on %S %s, unlike the reference" s why)
    corner_cases;
  let error s = match Parser.query s with Error m -> m | Ok _ -> "ok" in
  Alcotest.(check string)
    "overflow" "at offset 13: integer literal out of range"
    (error "Q(x) :- R(x, 99999999999999999999)");
  Alcotest.(check string)
    "a lexical error wins over an earlier syntax error"
    "at offset 18: unexpected character !" (error "Q(x) :- R(x)) S(x !");
  Alcotest.(check string) "empty input" "at offset 0: expected a query head" (error "");
  Alcotest.(check string)
    "a syntax error names its token" "at offset 11: expected , or ) in argument list"
    (error "Q(x) :- R(x");
  Alcotest.(check string) "trailing input" "at offset 13: trailing input"
    (error "Q(x) :- R(x) trailing");
  Alcotest.(check string) "end of input" "at offset 7: expected an atom" (error "Q(x) :-");
  Alcotest.(check string)
    "an unsafe query is the whole query"
    "at offset 0: unsafe query: head variable z does not appear in the body"
    (error "Q(z) :- R(x)")

(* --- the printer --------------------------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map (fun s -> Value.Str s) (string_size ~gen:char (0 -- 8));
        map (fun b -> Value.Bool b) bool;
      ])

let gen_strange_query =
  QCheck.Gen.(
    let term = oneof [ map (fun v -> Term.Const v) gen_value; oneofl [ Term.Var "x"; Term.Var "_y" ] ] in
    let atom = map2 Atom.make (oneofl [ "R"; "S"; "" ]) (list_size (0 -- 4) term) in
    let* body = list_size (1 -- 4) atom in
    let* head = list_size (0 -- 3) (map (fun v -> Term.Const v) gen_value) in
    let* name = oneofl [ "Q"; ""; "A long name" ] in
    return (Query.make ~name ~head ~body ()))

let test_printer () =
  let gen =
    QCheck.Gen.(
      oneof
        [
          Generators.gen_query;
          gen_strange_query;
          map
            (fun seed ->
              Workload.Querygen.generate (Workload.Querygen.create ~seed ()) ~max_subqueries:4)
            small_nat;
        ])
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:3000 ~name:"to_string ≡ Format printer ≡ pp, for queries, atoms and terms"
       (QCheck.make ~print:Reference_parser.to_string gen)
       (fun q ->
         let s = Query.to_string q in
         let same to_string pp x = String.equal (to_string x) (Format.asprintf "%a" pp x) in
         String.equal s (Reference_parser.to_string q)
         && String.equal s (Format.asprintf "%a" Query.pp q)
         && List.for_all (same Atom.to_string Reference_parser.pp_atom) q.body
         && List.for_all (same Atom.to_string Atom.pp) q.body
         && List.for_all
              (fun (a : Atom.t) ->
                List.for_all
                  (fun t -> same Term.to_string Reference_parser.pp_term t && same Term.to_string Term.pp t)
                  a.args)
              q.body))

let suite =
  [
    Alcotest.test_case "printed queries ≡ reference" `Quick test_printed_texts;
    Alcotest.test_case "damaged queries ≡ reference" `Quick test_damaged_texts;
    Alcotest.test_case "corner cases ≡ reference" `Quick test_corner_cases;
    Alcotest.test_case "printers ≡ Format printers" `Quick test_printer;
  ]
