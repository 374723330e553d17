exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable pos : int;  (** Consumed prefix of [buf] — dead bytes before the next frame. *)
  scratch : Bytes.t;
  mutable closed : bool;
}

let chunk = 4096

let connect ?(read_deadline = 30.0) addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Addr.to_sockaddr addr);
     if read_deadline > 0.0 then Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_deadline
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  { fd; buf = Buffer.create chunk; pos = 0; scratch = Bytes.create chunk; closed = false }

(* Transient connect-time failures: the peer is not there (yet). Anything
   else — bad address family, EACCES, out of descriptors — is a caller
   problem and retrying will not fix it. *)
let retryable = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ENETUNREACH
  | Unix.EHOSTUNREACH | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EINTR ->
    true
  | _ -> false

let connect_retry ?(attempts = 8) ?(delay = 0.05) ?(max_delay = 2.0) ?(jitter = 0.25)
    ?(sleep = Unix.sleepf) ?(rand = Random.float) ?read_deadline addr =
  if attempts < 1 then invalid_arg "Client.connect_retry: attempts must be >= 1";
  let backoff i =
    let base = Float.min max_delay (delay *. Float.pow 2.0 (float_of_int i)) in
    (* jitter in [1-j, 1+j] so synchronized reconnecting followers spread
       out instead of hammering a recovering primary in lockstep *)
    let factor = 1.0 +. (jitter *. ((2.0 *. rand 1.0) -. 1.0)) in
    Float.max 0.0 (base *. factor)
  in
  let rec go i =
    match connect ?read_deadline addr with
    | t -> t
    | exception Unix.Unix_error (err, _, _) when retryable err && i + 1 < attempts ->
      sleep (backoff i);
      go (i + 1)
  in
  go 0

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection ?read_deadline addr f =
  let t = connect ?read_deadline addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* How much dead prefix we tolerate before recopying the live tail. With a
   pipelined window in flight, compacting after every frame would recopy
   the remaining responses once per frame — O(n²) over the window. *)
let compact_threshold = 1 lsl 16

let compact t =
  if t.pos = Buffer.length t.buf then begin
    Buffer.clear t.buf;
    t.pos <- 0
  end
  else if t.pos >= compact_threshold then begin
    let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    t.pos <- 0
  end

(* Read until the buffer holds one complete frame at the cursor, then
   consume it by advancing [pos] — responses already buffered behind it
   (a pipelined window) are not recopied. *)
let read_frame t =
  let rec loop () =
    match Frame.decode_sub (Buffer.contents t.buf) ~off:t.pos with
    | Frame.Frame { payload; consumed } ->
      t.pos <- t.pos + consumed;
      compact t;
      payload
    | Frame.Corrupt e -> raise (Protocol_error (Errors.to_string e))
    | Frame.Need_more _ -> (
      match Unix.read t.fd t.scratch 0 chunk with
      | 0 ->
        raise
          (Protocol_error
             (if Buffer.length t.buf - t.pos = 0 then "server closed the connection"
              else "server closed the connection mid-frame"))
      | n ->
        Buffer.add_subbytes t.buf t.scratch 0 n;
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Protocol_error "timed out waiting for the server's response")
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (err, _, _) ->
        raise (Protocol_error ("reading the response: " ^ Unix.error_message err)))
  in
  loop ()

(* The server may close a connection before reading a byte of it — an
   over-cap or draining listener sends one typed refusal frame and closes —
   so a write can race the close and hit a peer-closed socket (EPIPE, or
   ECONNRESET). That is not a transport failure of its own: the read that
   follows returns the refusal frame the server already sent, or raises
   [Protocol_error] if there is none. No [Unix_error] escapes a write. *)
let send t s =
  try Fdio.write_all t.fd s with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error (err, _, _) ->
    raise (Protocol_error ("sending the request: " ^ Unix.error_message err))

let decode_response_exn payload =
  match Codec.decode_response payload with
  | Ok resp -> resp
  | Error msg -> raise (Protocol_error msg)

let request t req =
  if t.closed then raise (Protocol_error "connection is closed");
  send t (Frame.encode (Codec.encode_request req));
  decode_response_exn (read_frame t)

let request_pipelined ?(depth = 32) t reqs =
  if depth < 1 then invalid_arg "Client.request_pipelined: depth must be >= 1";
  if t.closed then raise (Protocol_error "connection is closed");
  let frames = Array.of_list (List.map (fun r -> Frame.encode (Codec.encode_request r)) reqs) in
  let n = Array.length frames in
  let sent = ref 0 in
  let received = ref 0 in
  let acc = ref [] in
  let out = Buffer.create chunk in
  while !received < n do
    (* Top up the in-flight window, coalescing the new frames into one
       write. The depth bound is what makes a blocking client safe: with
       both windows' worth of bytes bounded, the server can always drain
       what we sent and we can always drain what it responded — neither
       side ever blocks on write with the other also blocked on write. *)
    if !sent < n && !sent - !received < depth then begin
      Buffer.clear out;
      while !sent < n && !sent - !received < depth do
        Buffer.add_string out frames.(!sent);
        incr sent
      done;
      send t (Buffer.contents out)
    end;
    (* The server decides one connection's frames strictly in arrival
       order, so responses match requests positionally. *)
    acc := decode_response_exn (read_frame t) :: !acc;
    incr received
  done;
  List.rev !acc

let query_string ?ctx t ~principal query =
  match request t (Codec.Query { principal; query; trace = ctx }) with
  | Codec.Decision d -> Ok d
  | Codec.Error e -> Error e
  | Codec.Pong | Codec.Stats_doc _ | Codec.Batch _ | Codec.Snapshot _
  | Codec.Explained _ ->
    raise (Protocol_error "mismatched response to a query")

let query ?ctx t ~principal q = query_string ?ctx t ~principal (Cq.Query.to_string q)

let explain_string ?ctx t ~principal query =
  match request t (Codec.Explain { principal; query; trace = ctx }) with
  | Codec.Explained { decision; doc } -> (
    match Codec.explain_of_json doc with
    | Ok e -> Ok (decision, Some e)
    | Error msg -> raise (Protocol_error msg))
  | Codec.Decision d ->
    (* The server decided but had no provenance to attach (capture failed);
       the decision is still real and journaled. *)
    Ok (d, None)
  | Codec.Error e -> Error e
  | Codec.Pong | Codec.Stats_doc _ | Codec.Batch _ | Codec.Snapshot _ ->
    raise (Protocol_error "mismatched response to an explain request")

let explain ?ctx t ~principal q = explain_string ?ctx t ~principal (Cq.Query.to_string q)

let query_batch_string ?depth ?ctx t queries =
  let reqs =
    List.map (fun (principal, query) -> Codec.Query { principal; query; trace = ctx }) queries
  in
  List.map
    (function
      | Codec.Decision d -> Ok d
      | Codec.Error e -> Error e
      | Codec.Pong | Codec.Stats_doc _ | Codec.Batch _ | Codec.Snapshot _
      | Codec.Explained _ ->
        raise (Protocol_error "mismatched response to a query"))
    (request_pipelined ?depth t reqs)

let query_batch ?depth ?ctx t queries =
  query_batch_string ?depth ?ctx t (List.map (fun (p, q) -> (p, Cq.Query.to_string q)) queries)

let ping t =
  match request t Codec.Ping with
  | Codec.Pong -> ()
  | Codec.Error e -> raise (Protocol_error (Errors.to_string e))
  | Codec.Decision _ | Codec.Stats_doc _ | Codec.Batch _ | Codec.Snapshot _
  | Codec.Explained _ ->
    raise (Protocol_error "mismatched response to a ping")

let stats t =
  match request t Codec.Stats with
  | Codec.Stats_doc doc -> doc
  | Codec.Error e -> raise (Protocol_error (Errors.to_string e))
  | Codec.Decision _ | Codec.Pong | Codec.Batch _ | Codec.Snapshot _
  | Codec.Explained _ ->
    raise (Protocol_error "mismatched response to a stats request")

let pull ?(follower = "") ?ctx t ~shard ~seg ~off ~max_bytes =
  match request t (Codec.Pull { shard; seg; off; max_bytes; follower; trace = ctx }) with
  | (Codec.Batch _ | Codec.Snapshot _) as r -> Ok r
  | Codec.Error e -> Error e
  | Codec.Decision _ | Codec.Pong | Codec.Stats_doc _ | Codec.Explained _ ->
    raise (Protocol_error "mismatched response to a pull request")
