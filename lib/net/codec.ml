module Json = Obs.Json

type request =
  | Query of {
      principal : string;
      query : string;
      trace : (int * int) option;
    }
  | Explain of {
      principal : string;
      query : string;
      trace : (int * int) option;
    }
  | Ping
  | Stats
  | Pull of {
      shard : int;
      seg : int;
      off : int;
      max_bytes : int;
      follower : string;
      trace : (int * int) option;
    }

type response =
  | Decision of Disclosure.Monitor.decision
  | Pong
  | Stats_doc of Json.t
  | Batch of {
      shard : int;
      data : string;
      next_seg : int;
      next_off : int;
      behind : int;
      trace : (int * int) option;
    }
  | Snapshot of {
      shard : int;
      data : string;
      next_seg : int;
      next_off : int;
    }
  | Explained of {
      decision : Disclosure.Monitor.decision;
      doc : Json.t;
    }
  | Error of Errors.t

(* Journal and checkpoint bytes cross the wire hex-encoded: record fields
   can hold arbitrary bytes (the v2 journal escapes, it does not restrict),
   and the JSON layer must not be asked to round-trip non-UTF-8 strings.
   Hex doubles the size; replication is not the hot path, bit-identity is
   the contract. *)
let hex_digits = "0123456789abcdef"

let hex_encode s =
  String.init (2 * String.length s) (fun i ->
      let c = Char.code (String.unsafe_get s (i lsr 1)) in
      hex_digits.[if i land 1 = 0 then c lsr 4 else c land 15])

let hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then Stdlib.Error "odd-length hex payload"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let out = Bytes.create (n / 2) in
    let rec go i =
      if i >= n then Ok (Bytes.unsafe_to_string out)
      else
        match (nibble s.[i], nibble s.[i + 1]) with
        | Some hi, Some lo ->
          Bytes.unsafe_set out (i / 2) (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 2)
        | _ -> Stdlib.Error (Printf.sprintf "invalid hex digit at offset %d" i)
    in
    go 0

(* Wire integers ride as JSON numbers (doubles): exact to 2^53, far beyond
   any segment index or byte offset this protocol moves. Negative or
   fractional values are rejected on decode. *)
let int_field name doc =
  match Json.member name doc with
  | Some (Json.Num f) when Float.is_integer f && f >= 0.0 && f <= 9007199254740991.0 ->
    Some (int_of_float f)
  | _ -> None

(* Requests: {"op":"query","principal":P,"query":Q} | {"op":"ping"}
   | {"op":"stats"}.
   Responses: {"ok":true,"decision":"answered"}
   | {"ok":true,"decision":"refused","reason":TAG}
   | {"ok":true,"pong":true} | {"ok":true,"stats":DOC}
   | {"ok":false,"error":TAG,"detail":STR}.
   Refusals cross the wire as their journal tag
   ([Disclosure.Guard.refusal_to_tag]), so a decision survives the round
   trip exactly as it would survive journal replay. *)

(* The optional trace context rides as two plain integer members; decoders
   that predate the field ignore unknown members, so adding it is
   backward compatible in both directions. *)
let trace_members = function
  | None -> []
  | Some (tid, sid) ->
    [
      ("trace_id", Json.Num (float_of_int tid));
      ("span_id", Json.Num (float_of_int sid));
    ]

let trace_of doc =
  match (int_field "trace_id" doc, int_field "span_id" doc) with
  | Some tid, Some sid -> Some (tid, sid)
  | _ -> None

let request_to_json = function
  | Query { principal; query; trace } ->
    Json.Obj
      ([ ("op", Json.Str "query"); ("principal", Json.Str principal); ("query", Json.Str query) ]
      @ trace_members trace)
  | Explain { principal; query; trace } ->
    Json.Obj
      ([ ("op", Json.Str "explain"); ("principal", Json.Str principal); ("query", Json.Str query) ]
      @ trace_members trace)
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Pull { shard; seg; off; max_bytes; follower; trace } ->
    Json.Obj
      ([
         ("op", Json.Str "pull");
         ("shard", Json.Num (float_of_int shard));
         ("seg", Json.Num (float_of_int seg));
         ("off", Json.Num (float_of_int off));
         ("max_bytes", Json.Num (float_of_int max_bytes));
         ("follower", Json.Str follower);
       ]
      @ trace_members trace)

let request_of_json doc =
  match Json.member "op" doc with
  | Some (Json.Str "ping") -> Ok Ping
  | Some (Json.Str "stats") -> Ok Stats
  | Some (Json.Str "query") -> (
    match (Json.member "principal" doc, Json.member "query" doc) with
    | Some (Json.Str principal), Some (Json.Str query) ->
      Ok (Query { principal; query; trace = trace_of doc })
    | _ ->
      Stdlib.Error
        (Errors.bad_request "query request needs string fields \"principal\" and \"query\""))
  | Some (Json.Str "explain") -> (
    match (Json.member "principal" doc, Json.member "query" doc) with
    | Some (Json.Str principal), Some (Json.Str query) ->
      Ok (Explain { principal; query; trace = trace_of doc })
    | _ ->
      Stdlib.Error
        (Errors.bad_request "explain request needs string fields \"principal\" and \"query\""))
  | Some (Json.Str "pull") -> (
    match
      ( int_field "shard" doc,
        int_field "seg" doc,
        int_field "off" doc,
        int_field "max_bytes" doc )
    with
    | Some shard, Some seg, Some off, Some max_bytes ->
      (* [follower] identifies the puller so the primary can keep one
         cursor per follower; absent on pre-field clients, which then all
         share the anonymous "" follower. *)
      let follower =
        match Json.member "follower" doc with Some (Json.Str f) -> f | _ -> ""
      in
      Ok (Pull { shard; seg; off; max_bytes; follower; trace = trace_of doc })
    | _ ->
      Stdlib.Error
        (Errors.bad_request
           "pull request needs non-negative integer fields \"shard\", \"seg\", \"off\", \
            and \"max_bytes\""))
  | Some (Json.Str op) -> Stdlib.Error (Errors.bad_request (Printf.sprintf "unknown op %S" op))
  | Some _ -> Stdlib.Error (Errors.bad_request "\"op\" must be a string")
  | None -> Stdlib.Error (Errors.bad_request "request object has no \"op\" field")

let decision_members = function
  | Disclosure.Monitor.Answered -> [ ("decision", Json.Str "answered") ]
  | Disclosure.Monitor.Refused reason ->
    [
      ("decision", Json.Str "refused");
      ("reason", Json.Str (Disclosure.Guard.refusal_to_tag reason));
    ]

let response_to_json = function
  | Decision d -> Json.Obj (("ok", Json.Bool true) :: decision_members d)
  | Explained { decision; doc } ->
    Json.Obj ((("ok", Json.Bool true) :: decision_members decision) @ [ ("explain", doc) ])
  | Pong -> Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ]
  | Stats_doc doc -> Json.Obj [ ("ok", Json.Bool true); ("stats", doc) ]
  | Batch { shard; data; next_seg; next_off; behind; trace } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ( "batch",
          Json.Obj
            ([
               ("shard", Json.Num (float_of_int shard));
               ("data", Json.Str (hex_encode data));
               ("next_seg", Json.Num (float_of_int next_seg));
               ("next_off", Json.Num (float_of_int next_off));
               ("behind", Json.Num (float_of_int behind));
             ]
            @ trace_members trace) );
      ]
  | Snapshot { shard; data; next_seg; next_off } ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ( "snapshot",
          Json.Obj
            [
              ("shard", Json.Num (float_of_int shard));
              ("data", Json.Str (hex_encode data));
              ("next_seg", Json.Num (float_of_int next_seg));
              ("next_off", Json.Num (float_of_int next_off));
            ] );
      ]
  | Error e ->
    Json.Obj
      [
        ("ok", Json.Bool false);
        ("error", Json.Str (Errors.kind_to_tag e.Errors.kind));
        ("detail", Json.Str e.Errors.detail);
      ]

let response_of_json doc =
  match Json.member "ok" doc with
  | Some (Json.Bool false) -> (
    match (Json.member "error" doc, Json.member "detail" doc) with
    | Some (Json.Str tag), detail -> (
      let detail = match detail with Some (Json.Str d) -> d | _ -> "" in
      match Errors.kind_of_tag tag with
      | Some kind -> Ok (Error (Errors.v kind detail))
      | None -> Stdlib.Error (Printf.sprintf "unknown error tag %S" tag))
    | _ -> Stdlib.Error "error response needs a string \"error\" field")
  | Some (Json.Bool true) -> (
    let with_explain d =
      match Json.member "explain" doc with
      | Some e -> Explained { decision = d; doc = e }
      | None -> Decision d
    in
    match Json.member "decision" doc with
    | Some (Json.Str "answered") -> Ok (with_explain Disclosure.Monitor.Answered)
    | Some (Json.Str "refused") -> (
      match Json.member "reason" doc with
      | Some (Json.Str tag) -> (
        match Disclosure.Guard.refusal_of_tag tag with
        | Some reason -> Ok (with_explain (Disclosure.Monitor.Refused reason))
        | None -> Stdlib.Error (Printf.sprintf "unknown refusal tag %S" tag))
      | _ -> Stdlib.Error "refused decision has no \"reason\" tag")
    | Some (Json.Str d) -> Stdlib.Error (Printf.sprintf "unknown decision %S" d)
    | Some _ -> Stdlib.Error "\"decision\" must be a string"
    | None -> (
      match
        (Json.member "pong" doc, Json.member "stats" doc, Json.member "batch" doc,
         Json.member "snapshot" doc)
      with
      | Some (Json.Bool true), _, _, _ -> Ok Pong
      | _, Some doc, _, _ -> Ok (Stats_doc doc)
      | _, _, Some b, _ -> (
        match
          ( int_field "shard" b,
            Json.member "data" b,
            int_field "next_seg" b,
            int_field "next_off" b,
            int_field "behind" b )
        with
        | Some shard, Some (Json.Str hex), Some next_seg, Some next_off, Some behind -> (
          match hex_decode hex with
          | Ok data ->
            Ok (Batch { shard; data; next_seg; next_off; behind; trace = trace_of b })
          | Stdlib.Error e -> Stdlib.Error (Printf.sprintf "batch data: %s" e))
        | _ ->
          Stdlib.Error
            "batch response needs integer \"shard\", \"next_seg\", \"next_off\", \
             \"behind\" and hex string \"data\"")
      | _, _, _, Some s -> (
        match
          ( int_field "shard" s,
            Json.member "data" s,
            int_field "next_seg" s,
            int_field "next_off" s )
        with
        | Some shard, Some (Json.Str hex), Some next_seg, Some next_off -> (
          match hex_decode hex with
          | Ok data -> Ok (Snapshot { shard; data; next_seg; next_off })
          | Stdlib.Error e -> Stdlib.Error (Printf.sprintf "snapshot data: %s" e))
        | _ ->
          Stdlib.Error
            "snapshot response needs integer \"shard\", \"next_seg\", \"next_off\" \
             and hex string \"data\"")
      | _ -> Stdlib.Error "ok response carries no decision, pong, stats, batch, or snapshot"))
  | Some _ -> Stdlib.Error "\"ok\" must be a boolean"
  | None -> Stdlib.Error "response object has no \"ok\" field"

(* --- Explain.t <-> JSON -------------------------------------------------- *)

(* The structured explanation crosses the wire as a plain JSON object so
   non-OCaml consumers can read it; [explain_of_json] restores the exact
   record (the e2e suite round-trips it). Masks ride as ints — they fit:
   Policy.max_partitions < 62 bits < 2^53. *)
let explain_to_json (e : Disclosure.Explain.t) =
  let module E = Disclosure.Explain in
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("principal", Json.Str e.E.principal);
      ("decision", Json.Str e.E.decision);
      ("label", Json.Str e.E.label);
      ("label_width", num e.E.label_width);
      ( "atoms",
        Json.List
          (List.map
             (fun (rel, views) ->
               Json.Obj
                 [
                   ("rel", num rel);
                   ("views", Json.List (List.map (fun v -> Json.Str v) views));
                 ])
             e.E.atoms) );
      ("mask_before", num e.E.mask_before);
      ("mask_after", num e.E.mask_after);
      ( "partitions",
        Json.List
          (List.map
             (fun (name, alive, covers) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("alive", Json.Bool alive);
                   ("covers", Json.Bool covers);
                 ])
             e.E.partitions) );
      ("fuel_spent", match e.E.fuel_spent with Some f -> num f | None -> Json.Null);
      ("elapsed_ns", num e.E.elapsed_ns);
      ("tier", Json.Str e.E.tier);
      ("cache_level", Json.Str e.E.cache_level);
      ( "cause",
        Json.List
          (List.map
             (fun (c : E.cause) ->
               Json.Obj [ ("stage", Json.Str c.E.stage); ("reason", Json.Str c.E.reason) ])
             e.E.cause) );
    ]

let explain_of_json doc =
  let module E = Disclosure.Explain in
  let str name = match Json.member name doc with Some (Json.Str s) -> Some s | _ -> None in
  (* label_width is -1 for pre-label refusals, so signed ints are needed
     here where the wire protocol proper only moves non-negative ones. *)
  let signed_int name =
    match Json.member name doc with
    | Some (Json.Num f) when Float.is_integer f && Float.abs f <= 9007199254740991.0 ->
      Some (int_of_float f)
    | _ -> None
  in
  let list name f =
    match Json.member name doc with
    | Some (Json.List xs) ->
      List.fold_right
        (fun x acc -> match (f x, acc) with Some v, Some l -> Some (v :: l) | _ -> None)
        xs (Some [])
    | _ -> None
  in
  let atom = function
    | Json.Obj _ as o -> (
      match (int_field "rel" o, Json.member "views" o) with
      | Some rel, Some (Json.List vs) ->
        List.fold_right
          (fun v acc ->
            match (v, acc) with Json.Str s, Some l -> Some (s :: l) | _ -> None)
          vs (Some [])
        |> Option.map (fun views -> (rel, views))
      | _ -> None)
    | _ -> None
  in
  let partition = function
    | Json.Obj _ as o -> (
      match (Json.member "name" o, Json.member "alive" o, Json.member "covers" o) with
      | Some (Json.Str n), Some (Json.Bool a), Some (Json.Bool c) -> Some (n, a, c)
      | _ -> None)
    | _ -> None
  in
  let cause = function
    | Json.Obj _ as o -> (
      match (Json.member "stage" o, Json.member "reason" o) with
      | Some (Json.Str stage), Some (Json.Str reason) -> Some { E.stage; reason }
      | _ -> None)
    | _ -> None
  in
  match
    ( str "principal",
      str "decision",
      str "label",
      signed_int "label_width",
      list "atoms" atom,
      signed_int "mask_before",
      signed_int "mask_after",
      list "partitions" partition,
      signed_int "elapsed_ns",
      str "tier" )
  with
  | ( Some principal,
      Some decision,
      Some label,
      Some label_width,
      Some atoms,
      Some mask_before,
      Some mask_after,
      Some partitions,
      Some elapsed_ns,
      Some tier ) -> (
    match (str "cache_level", list "cause" cause) with
    | Some cache_level, Some cause ->
      Ok
        {
          E.principal;
          decision;
          label;
          label_width;
          atoms;
          mask_before;
          mask_after;
          partitions;
          fuel_spent = signed_int "fuel_spent";
          elapsed_ns;
          tier;
          cache_level;
          cause;
        }
    | _ -> Stdlib.Error "malformed explain document"
  )
  | _ -> Stdlib.Error "malformed explain document"

let encode_request r = Json.to_string (request_to_json r)

let decode_request payload =
  match Json.parse payload with
  | Stdlib.Error msg -> Stdlib.Error (Errors.bad_json msg)
  | Ok doc -> request_of_json doc

let encode_response r = Json.to_string (response_to_json r)

let decode_response payload =
  match Json.parse payload with
  | Stdlib.Error msg -> Stdlib.Error (Printf.sprintf "response is not JSON: %s" msg)
  | Ok doc -> response_of_json doc
