(** Request/response payload codec.

    A frame payload is binary: one tag byte naming the constructor, then
    its fields in declaration order and nothing after them. A string is
    a u32 big-endian length and the bytes verbatim, an integer 8 bytes
    big-endian and non-negative, an optional trace context a flag byte
    (0 or 1) and then two integers, a decision a flag byte (0 answered,
    1 refused) and for a refusal its journal tag
    ({!Disclosure.Guard.refusal_to_tag}) as a string — a decision crosses
    the wire with exactly the fidelity it survives journal replay.

    {v
    request   tag  fields
    Query     'q'  principal:string query:string trace
    Explain   'e'  principal:string query:string trace
    Ping      'p'
    Stats     's'
    Pull      'l'  shard seg off max_bytes:int follower:string trace
    response  tag  fields
    Decision  'D'  decision
    Pong      'P'
    Stats_doc 'S'  doc:string (JSON text)
    Batch     'B'  shard:int data:string next_seg next_off behind:int trace
    Snapshot  'N'  shard:int data:string next_seg next_off:int
    Explained 'X'  decision doc:string (JSON text)
    Error     'E'  kind:string ({!Errors.kind_to_tag}) detail:string
    v}

    Queries travel as [Cq] concrete syntax (strings from
    {!Cq.Query.to_string}, re-parsed server-side). Journal and checkpoint
    bytes travel raw, so replication moves each byte once. *)

type request =
  | Query of {
      principal : string;
      query : string;  (** [Cq] concrete syntax; parsed by the server. *)
      trace : (int * int) option;
          (** Optional trace context [(trace_id, parent_span_id)]: the
              caller's span identity (CRC'd with the rest of the frame).
              The server's spans for this query join the caller's trace,
              stitching client, listener, shard, and standby into one
              timeline. *)
    }
  | Explain of {
      principal : string;
      query : string;
      trace : (int * int) option;
    }
      (** Like [Query] — the decision is real, committed, and journaled —
          but the response additionally carries the structured decision
          provenance ({!Disclosure.Explain.t} as JSON). *)
  | Ping  (** Liveness probe; answered without touching the monitor. *)
  | Stats  (** Fetch the server's {!Server.stats_json} document. *)
  | Pull of {
      shard : int;
      seg : int;  (** Active-segment index of the follower's cursor; [0]
                      requests a bootstrap {!response.Snapshot}. *)
      off : int;  (** Byte offset within [seg], at a record boundary. *)
      max_bytes : int;  (** Soft cap on returned journal bytes. *)
      follower : string;
          (** Identifies the pulling follower so the primary keeps one
              cursor per follower (correct caught-up/lag watermarks with
              several standbys). Pullers that send [""] share one
              anonymous cursor. *)
      trace : (int * int) option;
          (** Trace context of the follower's replication span, so the
              primary's pull-serving span joins the follower's trace. *)
    }
      (** Replication pull: "send me journal bytes from cursor
          [(seg, off)] onward". Served only when the listener has a
          replication source attached (see {!Listener.create}'s [extend]);
          otherwise refused with [Bad_request]. *)

type response =
  | Decision of Disclosure.Monitor.decision
  | Pong
  | Stats_doc of Obs.Json.t
  | Batch of {
      shard : int;
      data : string;  (** Raw journal bytes, verbatim from the primary's
                          segment files — the bit-identity contract. *)
      next_seg : int;  (** Cursor after applying [data]. *)
      next_off : int;
      behind : int;  (** Primary's estimate of committed bytes still not
                         shipped after this batch ([0] = caught up). *)
      trace : (int * int) option;
          (** The primary's pull-serving span [(trace_id, span_id)] — the
              follower stamps its apply span with it, so replication lag
              is attributable to a specific primary-side serve in a merged
              trace. *)
    }
  | Snapshot of {
      shard : int;
      data : string;  (** Raw checkpoint-file bytes ([""] when the primary
                          has no checkpoint yet). *)
      next_seg : int;  (** Cursor where tail shipping resumes. *)
      next_off : int;
    }
  | Explained of {
      decision : Disclosure.Monitor.decision;
      doc : Obs.Json.t;  (** {!explain_to_json} of the decision's provenance. *)
    }
  | Error of Errors.t

val explain_to_json : Disclosure.Explain.t -> Obs.Json.t
(** The structured explanation as a plain JSON object (masks as integers —
    they fit well under 2{^53}), so non-OCaml consumers can read it. *)

val explain_of_json : Obs.Json.t -> (Disclosure.Explain.t, string) result
(** Exact inverse of {!explain_to_json}. *)

val encode_request : request -> string

val decode_request : string -> (request, Errors.t) result
(** Total, never raises: a field cut short, a flag byte out of range or
    bytes after the last field is [Errors.Bad_payload] (fatal); an
    unknown tag or a negative integer is [Errors.Bad_request], which
    leaves the connection open. *)

val encode_response : response -> string

val decode_response : string -> (response, string) result
(** Total, never raises. [Error] carries a diagnostic (also for an
    unknown refusal or error tag, or a document that is not JSON) —
    client side only, never crosses the wire. *)
