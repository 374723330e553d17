(* Printer/parser roundtrip properties for every surface syntax in the
   system: values, conjunctive queries, FQL, Graph API requests, and
   serialized labels. *)

module Gen = QCheck.Gen
module Value = Relational.Value

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arb f)

(* --- Values ----------------------------------------------------------- *)

let gen_value =
  Gen.oneof
    [
      Gen.map (fun i -> Value.Int i) Gen.small_signed_int;
      Gen.map (fun s -> Value.Str s) (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 8));
      Gen.map (fun b -> Value.Bool b) Gen.bool;
    ]

let value_roundtrip =
  prop "value to_string/of_string roundtrip"
    (QCheck.make ~print:Value.to_string gen_value)
    (fun v -> Value.equal v (Value.of_string (Value.to_string v)))

(* --- Conjunctive queries ------------------------------------------------ *)

let query_roundtrip =
  prop "query pp/parse roundtrip" Generators.arbitrary_query (fun q ->
      match Cq.Parser.query (Cq.Query.to_string q) with
      | Ok q' -> Cq.Query.equal q q'
      | Error _ -> false)

(* --- FQL ---------------------------------------------------------------- *)

let gen_field = Gen.oneofl [ "uid"; "name"; "birthday"; "languages"; "friend_uid" ]

let gen_table = Gen.oneofl [ "user"; "friend"; "like" ]

let gen_fql_literal =
  Gen.oneof
    [
      Gen.map (fun i -> Value.Int i) (Gen.int_range 0 99);
      Gen.map (fun s -> Value.Str s) (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 6));
      Gen.map (fun b -> Value.Bool b) Gen.bool;
    ]

let rec gen_select depth =
  let open Gen in
  let gen_cond =
    if depth = 0 then
      oneof
        [
          map2 (fun f v -> Fb_api.Fql.Eq (f, v)) gen_field gen_fql_literal;
          map (fun f -> Fb_api.Fql.Eq_me f) gen_field;
        ]
    else
      frequency
        [
          (3, map2 (fun f v -> Fb_api.Fql.Eq (f, v)) gen_field gen_fql_literal);
          (2, map (fun f -> Fb_api.Fql.Eq_me f) gen_field);
          ( 1,
            map2
              (fun f sub -> Fb_api.Fql.In_subquery (f, sub))
              gen_field (gen_select (depth - 1)) );
        ]
  in
  let* n_fields = int_range 1 3 in
  let* fields = list_repeat n_fields gen_field in
  let* table = gen_table in
  let* n_conds = int_range 0 2 in
  let* where = list_repeat n_conds gen_cond in
  return { Fb_api.Fql.fields; table; where }

let fql_roundtrip =
  prop "FQL to_string/parse roundtrip"
    (QCheck.make ~print:Fb_api.Fql.to_string (gen_select 2))
    (fun sel ->
      match Fb_api.Fql.parse (Fb_api.Fql.to_string sel) with
      | Ok sel' -> sel = sel'
      | Error _ -> false)

(* --- Graph API ----------------------------------------------------------- *)

let gen_graph_request =
  let open Gen in
  let* node =
    oneof
      [
        return Fb_api.Graph_api.Me;
        map
          (fun s -> Fb_api.Graph_api.User_id s)
          (string_size ~gen:(char_range '0' '9') (int_range 1 6));
      ]
  in
  let* connection =
    oneof
      [
        return None;
        map Option.some
          (oneofl [ "friends"; "likes"; "photos"; "albums"; "events"; "checkins" ]);
      ]
  in
  let* n_fields = int_range 0 3 in
  let* fields = list_repeat n_fields (oneofl [ "uid"; "name"; "birthday"; "page_id" ]) in
  return { Fb_api.Graph_api.node; connection; fields }

let graph_roundtrip =
  prop "Graph API to_string/parse roundtrip"
    (QCheck.make ~print:Fb_api.Graph_api.to_string gen_graph_request)
    (fun t ->
      match Fb_api.Graph_api.parse (Fb_api.Graph_api.to_string t) with
      | Ok t' -> t = t'
      | Error _ -> false)

(* --- Labels ---------------------------------------------------------------- *)

let props_pipeline =
  Disclosure.Pipeline.create
    [
      Helpers.sview "W1(a, b, c) :- R(a, b, c)";
      Helpers.sview "W2(a, b) :- R(a, b, c)";
      Helpers.sview "W5(a, b) :- S(a, b)";
    ]

let label_roundtrip =
  prop "label encode/decode roundtrip" Generators.arbitrary_query (fun q ->
      let l = Disclosure.Pipeline.label props_pipeline q in
      match Disclosure.Label.decode (Disclosure.Label.encode l) with
      | Ok l' -> l = l'
      | Error _ -> false)

(* Arbitrary atom labels, not only the ones a pipeline produces: relation
   ids and masks from zero through the widest values [make_atom] accepts,
   so every hex width is exercised. *)
let gen_label =
  let open QCheck.Gen in
  let field max = oneof [ int_range 0 17; int_range 0 max; return max ] in
  let atom =
    map2
      (fun rel_id mask -> Disclosure.Label.make_atom ~rel_id ~mask)
      (field (1 lsl 31))
      (field ((1 lsl Disclosure.Label.mask_bits) - 1))
  in
  map Array.of_list (list_size (int_range 0 6) atom)

let label_encode_is_printf =
  prop "label encode = the Printf formulation, and decodes back"
    (QCheck.make ~print:Disclosure.Label.encode gen_label)
    (fun l ->
      let printf =
        Array.to_list l
        |> List.map (fun al ->
               Printf.sprintf "%x:%x" (Disclosure.Label.rel al) (Disclosure.Label.mask al))
        |> String.concat ";"
      in
      let encoded = Disclosure.Label.encode l in
      String.equal encoded printf && Disclosure.Label.decode encoded = Ok l)

let suite =
  [
    value_roundtrip;
    query_roundtrip;
    fql_roundtrip;
    graph_roundtrip;
    label_roundtrip;
    label_encode_is_printf;
  ]
