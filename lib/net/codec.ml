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

(* --- the binary payload ------------------------------------------------- *)

(* The layout, a tag byte and then each field in declaration order, is
   tabulated in codec.mli and DESIGN §10. *)

let tag_query = 'q'
let tag_explain = 'e'
let tag_ping = 'p'
let tag_stats = 's'
let tag_pull = 'l'
let tag_decision = 'D'
let tag_pong = 'P'
let tag_stats_doc = 'S'
let tag_batch = 'B'
let tag_snapshot = 'N'
let tag_explained = 'X'
let tag_error = 'E'

(* Encoding: each payload's size is known before a byte is written, so it
   is built in one exactly sized buffer. *)
let str_size s = 4 + String.length s
let int_size = 8
let trace_size = function None -> 1 | Some _ -> 1 + (2 * int_size)

let refusal_tag = function
  | Disclosure.Monitor.Answered -> None
  | Disclosure.Monitor.Refused r -> Some (Disclosure.Guard.refusal_to_tag r)

let decision_size = function None -> 1 | Some tag -> 1 + str_size tag

type enc = {
  buf : Bytes.t;
  mutable pos : int;
}

let put_char e c =
  Bytes.set e.buf e.pos c;
  e.pos <- e.pos + 1

let put_int e v =
  Bytes.set_int64_be e.buf e.pos (Int64.of_int v);
  e.pos <- e.pos + int_size

let put_str e s =
  let n = String.length s in
  Bytes.set_int32_be e.buf e.pos (Int32.of_int n);
  Bytes.blit_string s 0 e.buf (e.pos + 4) n;
  e.pos <- e.pos + 4 + n

let put_trace e = function
  | None -> put_char e '\000'
  | Some (tid, sid) ->
    put_char e '\001';
    put_int e tid;
    put_int e sid

let put_decision e = function
  | None -> put_char e '\000'
  | Some tag ->
    put_char e '\001';
    put_str e tag

let build size tag fill =
  let e = { buf = Bytes.create size; pos = 0 } in
  put_char e tag;
  fill e;
  Bytes.unsafe_to_string e.buf

let encode_request = function
  | Query { principal; query; trace } ->
    build (1 + str_size principal + str_size query + trace_size trace) tag_query (fun e ->
        put_str e principal;
        put_str e query;
        put_trace e trace)
  | Explain { principal; query; trace } ->
    build (1 + str_size principal + str_size query + trace_size trace) tag_explain (fun e ->
        put_str e principal;
        put_str e query;
        put_trace e trace)
  | Ping -> String.make 1 tag_ping
  | Stats -> String.make 1 tag_stats
  | Pull { shard; seg; off; max_bytes; follower; trace } ->
    build
      (1 + (4 * int_size) + str_size follower + trace_size trace)
      tag_pull
      (fun e ->
        put_int e shard;
        put_int e seg;
        put_int e off;
        put_int e max_bytes;
        put_str e follower;
        put_trace e trace)

let encode_response = function
  | Decision d ->
    let r = refusal_tag d in
    build (1 + decision_size r) tag_decision (fun e -> put_decision e r)
  | Pong -> String.make 1 tag_pong
  | Stats_doc doc ->
    let text = Json.to_string doc in
    build (1 + str_size text) tag_stats_doc (fun e -> put_str e text)
  | Batch { shard; data; next_seg; next_off; behind; trace } ->
    build
      (1 + str_size data + (4 * int_size) + trace_size trace)
      tag_batch
      (fun e ->
        put_int e shard;
        put_str e data;
        put_int e next_seg;
        put_int e next_off;
        put_int e behind;
        put_trace e trace)
  | Snapshot { shard; data; next_seg; next_off } ->
    build (1 + str_size data + (3 * int_size)) tag_snapshot (fun e ->
        put_int e shard;
        put_str e data;
        put_int e next_seg;
        put_int e next_off)
  | Explained { decision; doc } ->
    let r = refusal_tag decision in
    let text = Json.to_string doc in
    build (1 + decision_size r + str_size text) tag_explained (fun e ->
        put_decision e r;
        put_str e text)
  | Error { Errors.kind; detail } ->
    let tag = Errors.kind_to_tag kind in
    build (1 + str_size tag + str_size detail) tag_error (fun e ->
        put_str e tag;
        put_str e detail)

(* Decoding: a cursor over the payload. A field cut short, a flag byte out
   of range or bytes after the last field is [Bad_payload]; a well-formed
   field the protocol does not accept (an unknown tag, a negative
   integer) is [Bad_request]. *)
exception Bad of Errors.t

type dec = {
  src : string;
  mutable at : int;
}

let malformed fmt = Printf.ksprintf (fun msg -> raise (Bad (Errors.bad_payload msg))) fmt

let need d n what =
  if n > String.length d.src - d.at then
    malformed "payload truncated in %s at byte %d of %d" what d.at (String.length d.src)

let get_char d what =
  need d 1 what;
  let c = String.unsafe_get d.src d.at in
  d.at <- d.at + 1;
  c

let get_int d what =
  need d int_size what;
  let v = String.get_int64_be d.src d.at in
  d.at <- d.at + int_size;
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    raise (Bad (Errors.bad_request (Printf.sprintf "%s must be a non-negative integer" what)));
  Int64.to_int v

let get_str d what =
  need d 4 what;
  let n = Int32.to_int (String.get_int32_be d.src d.at) land 0xffff_ffff in
  d.at <- d.at + 4;
  need d n what;
  let s = String.sub d.src d.at n in
  d.at <- d.at + n;
  s

let get_trace d =
  match get_char d "trace" with
  | '\000' -> None
  | '\001' ->
    let tid = get_int d "trace_id" in
    Some (tid, get_int d "span_id")
  | c -> malformed "trace flag 0x%02x is neither 0 nor 1" (Char.code c)

let get_decision d =
  match get_char d "decision" with
  | '\000' -> Disclosure.Monitor.Answered
  | '\001' -> (
    let tag = get_str d "refusal reason" in
    match Disclosure.Guard.refusal_of_tag tag with
    | Some reason -> Disclosure.Monitor.Refused reason
    | None -> raise (Bad (Errors.bad_request (Printf.sprintf "unknown refusal tag %S" tag))))
  | c -> malformed "decision flag 0x%02x is neither 0 nor 1" (Char.code c)

let get_json d what =
  match Json.parse (get_str d what) with
  | Ok doc -> doc
  | Stdlib.Error msg -> raise (Bad (Errors.bad_request (Printf.sprintf "%s is not JSON: %s" what msg)))

(* Runs [body] over the whole payload: its first byte is the tag. *)
let decode_with ~what payload body =
  let d = { src = payload; at = 0 } in
  match
    let v = body d (get_char d "tag") in
    if d.at <> String.length payload then
      malformed "%d trailing bytes after the %s" (String.length payload - d.at) what;
    v
  with
  | v -> Ok v
  | exception Bad e -> Stdlib.Error e

let decode_request payload =
  decode_with ~what:"request" payload (fun d tag ->
      if tag = tag_query || tag = tag_explain then begin
        let principal = get_str d "principal" in
        let query = get_str d "query" in
        let trace = get_trace d in
        if tag = tag_query then Query { principal; query; trace }
        else Explain { principal; query; trace }
      end
      else if tag = tag_ping then Ping
      else if tag = tag_stats then Stats
      else if tag = tag_pull then begin
        let shard = get_int d "shard" in
        let seg = get_int d "seg" in
        let off = get_int d "off" in
        let max_bytes = get_int d "max_bytes" in
        let follower = get_str d "follower" in
        Pull { shard; seg; off; max_bytes; follower; trace = get_trace d }
      end
      else
        raise (Bad (Errors.bad_request (Printf.sprintf "unknown request tag 0x%02x" (Char.code tag)))))

let decode_response payload =
  decode_with ~what:"response" payload (fun d tag ->
      if tag = tag_decision then Decision (get_decision d)
      else if tag = tag_pong then Pong
      else if tag = tag_stats_doc then Stats_doc (get_json d "stats document")
      else if tag = tag_batch then begin
        let shard = get_int d "shard" in
        let data = get_str d "data" in
        let next_seg = get_int d "next_seg" in
        let next_off = get_int d "next_off" in
        let behind = get_int d "behind" in
        Batch { shard; data; next_seg; next_off; behind; trace = get_trace d }
      end
      else if tag = tag_snapshot then begin
        let shard = get_int d "shard" in
        let data = get_str d "data" in
        let next_seg = get_int d "next_seg" in
        Snapshot { shard; data; next_seg; next_off = get_int d "next_off" }
      end
      else if tag = tag_explained then begin
        let decision = get_decision d in
        Explained { decision; doc = get_json d "explain document" }
      end
      else if tag = tag_error then begin
        let tag = get_str d "error tag" in
        let detail = get_str d "error detail" in
        match Errors.kind_of_tag tag with
        | Some kind -> Error (Errors.v kind detail)
        | None -> raise (Bad (Errors.bad_request (Printf.sprintf "unknown error tag %S" tag)))
      end
      else
        raise (Bad (Errors.bad_request (Printf.sprintf "unknown response tag 0x%02x" (Char.code tag)))))
  |> Result.map_error Errors.to_string

(* --- Explain.t <-> JSON -------------------------------------------------- *)

(* The structured explanation crosses the wire as a plain JSON object so
   non-OCaml consumers can read it; [explain_of_json] restores the exact
   record (the e2e suite round-trips it). Masks ride as ints — they fit:
   Policy.max_partitions < 62 bits < 2^53. *)
(* A non-negative integer member; masks and relation ids fit well under
   2^53, where a JSON number stops being exact. *)
let int_field name doc =
  match Json.member name doc with
  | Some (Json.Num f) when Float.is_integer f && f >= 0.0 && f <= 9007199254740991.0 ->
    Some (int_of_float f)
  | _ -> None

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
