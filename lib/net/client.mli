(** Blocking client for the wire protocol: one connection, requests
    answered strictly in order. {!request} is one round trip at a time;
    {!query_batch} pipelines a bounded window of requests so many are in
    flight per round trip. Thread-compatible, not thread-safe — one domain
    per connection (open several connections for concurrency, as the
    overload tests do). *)

exception Protocol_error of string
(** The {e transport} failed: the server closed the connection, sent a
    corrupt frame or unparseable response, or the read deadline expired.
    Server-side refusals and typed wire errors are values, not
    exceptions. *)

type t

val connect : ?read_deadline:float -> Addr.t -> t
(** [read_deadline] (default 30 s; [0] disables) bounds each wait for a
    response.
    @raise Unix.Unix_error when the connection is refused. *)

val connect_retry :
  ?attempts:int ->
  ?delay:float ->
  ?max_delay:float ->
  ?jitter:float ->
  ?sleep:(float -> unit) ->
  ?rand:(float -> float) ->
  ?read_deadline:float ->
  Addr.t ->
  t
(** {!connect} with bounded exponential backoff on transient connect-time
    failures ([ECONNREFUSED], [ECONNRESET], [ENOENT], [ENETUNREACH],
    [EHOSTUNREACH], [ETIMEDOUT], [EAGAIN], [EINTR]) — the follower's
    reconnect path when the primary restarts. At most [attempts] (default
    8) tries; the wait before retry [i+1] is
    [min max_delay (delay * 2^i)] scaled by a uniform jitter factor in
    [[1 - jitter, 1 + jitter]] (defaults: 50 ms base, 2 s cap, 0.25
    jitter), so synchronized followers spread out instead of reconnecting
    in lockstep. [sleep] and [rand] (defaults [Unix.sleepf] /
    [Random.float]) are injectable so tests can fake both the clock and
    the dice.
    @raise Unix.Unix_error the last failure when all attempts fail, or
    immediately on a non-transient error ([EACCES], [EMFILE], …).
    @raise Invalid_argument on [attempts < 1]. *)

val close : t -> unit
(** Half-closes the send side (clean EOF for the server) and closes the
    descriptor. Idempotent. *)

val with_connection : ?read_deadline:float -> Addr.t -> (t -> 'a) -> 'a

val request : t -> Codec.request -> Codec.response
(** One round trip. A server that closed the connection before the request
    went out (an over-cap or draining listener refuses with one typed error
    frame, then closes) still answers: a write to the closed socket is not
    an error of its own, and the response read is that refusal frame —
    or, if the server sent none, a [Protocol_error]. No [Unix.Unix_error]
    escapes a request.
    @raise Protocol_error on transport failure. *)

val request_pipelined : ?depth:int -> t -> Codec.request list -> Codec.response list
(** Send the requests down the one connection with up to [depth] (default
    32) in flight at once, and return the responses in request order. The
    server decides one connection's frames strictly in arrival order, so
    responses correspond to requests positionally — same answers as
    [List.map (request t)], minus a round trip per request. The depth
    bound keeps the unread bytes on both sockets bounded, so the blocking
    client can never deadlock against a server that writes in batches. If
    the connection dies mid-batch ([Protocol_error]), responses not yet
    read are lost — like any torn connection, the caller cannot tell which
    of the unacknowledged requests were decided (journaled decisions
    survive and recovery replays them).
    @raise Protocol_error on transport failure.
    @raise Invalid_argument on [depth < 1]. *)

val query :
  ?ctx:int * int ->
  t ->
  principal:string ->
  Cq.Query.t ->
  (Disclosure.Monitor.decision, Errors.t) result
(** Submit one query (sent as {!Cq.Query.to_string} concrete syntax).
    [Ok] is the monitor's decision — including fail-closed refusals such
    as [Refused Overload]; [Error] is a typed wire error
    ([Unknown_principal], [Shutting_down], …). [ctx], when given, is the
    caller's [(trace_id, span_id)] (e.g. {!Obs.Trace.scope_ids} of a local
    scope), carried on the wire frame so the server's spans for this query
    join the caller's trace.
    @raise Protocol_error on transport failure. *)

val query_string :
  ?ctx:int * int -> t -> principal:string -> string -> (Disclosure.Monitor.decision, Errors.t) result
(** Like {!query} with the concrete syntax already in hand (the CLI's
    path — the server parses and validates). *)

val explain :
  ?ctx:int * int ->
  t ->
  principal:string ->
  Cq.Query.t ->
  (Disclosure.Monitor.decision * Disclosure.Explain.t option, Errors.t) result
(** Like {!query} — the decision is real, committed, and journaled — but
    also returns the decision's structured provenance, decoded from the
    server's [Explained] response. [None] provenance means the server
    decided but could not capture (never the common case).
    @raise Protocol_error on transport failure or a malformed explain
    document. *)

val explain_string :
  ?ctx:int * int ->
  t ->
  principal:string ->
  string ->
  (Disclosure.Monitor.decision * Disclosure.Explain.t option, Errors.t) result

val query_batch :
  ?depth:int ->
  ?ctx:int * int ->
  t ->
  (string * Cq.Query.t) list ->
  (Disclosure.Monitor.decision, Errors.t) result list
(** Pipeline a batch of [(principal, query)] submissions
    ({!request_pipelined}) and return each one's result in order, with the
    same [Ok]/[Error] split as {!query}. Decisions are identical to
    issuing the queries one by one — pipelining changes scheduling, never
    semantics. [ctx] is stamped on every request in the batch: the whole
    window's server-side spans join the one caller trace.
    @raise Protocol_error on transport failure (see
    {!request_pipelined} for what is knowable about a torn batch). *)

val query_batch_string :
  ?depth:int ->
  ?ctx:int * int ->
  t ->
  (string * string) list ->
  (Disclosure.Monitor.decision, Errors.t) result list
(** {!query_batch} with the concrete syntax already in hand. *)

val ping : t -> unit
(** Liveness round trip.
    @raise Protocol_error when the server is not speaking the protocol. *)

val stats : t -> Obs.Json.t
(** Fetch the server's {!Server.stats_json} document, parsed. *)

val pull :
  ?follower:string ->
  ?ctx:int * int ->
  t ->
  shard:int ->
  seg:int ->
  off:int ->
  max_bytes:int ->
  (Codec.response, Errors.t) result
(** One replication pull round trip. [Ok] is always [Codec.Batch] or
    [Codec.Snapshot]; [Error] is the typed wire error (e.g. [Bad_request]
    when the server has no replication source attached). [follower]
    (default [""], the anonymous pool) names this follower on the primary's
    per-follower cursor table — give each standby a distinct id. [ctx] is
    the follower's replication-span identity; the primary's pull-serving
    span joins that trace and echoes its own ids on the [Batch] response.
    @raise Protocol_error on transport failure. *)
