exception Protocol_error of string

type t = {
  fd : Unix.file_descr;
  input : Frame.reader;
  output : Frame.writer;
  mutable closed : bool;
}

(* The largest length a frame header can declare: a pull response carries
   a whole checkpoint, which no smaller constant bounds. *)
let max_response = 0xffff_ffff

let connect ?(read_deadline = 30.0) addr =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Addr.to_sockaddr addr);
     if read_deadline > 0.0 then Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_deadline
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  let input = Frame.reader ~max_payload:max_response fd in
  { fd; input; output = Frame.writer fd; closed = false }

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

let fail e = raise (Protocol_error (Errors.to_string e))

(* The next response already in the receive window, without I/O. *)
let next_response t =
  match Frame.next t.input with
  | Ok (Some payload) -> (
    match Codec.decode_response payload with
    | Ok resp -> Some resp
    | Error msg -> raise (Protocol_error msg))
  | Ok None -> None
  | Error e -> fail e

(* One read(2) into the receive window. *)
let receive t =
  match Frame.fill t.input with
  | Ok 0 -> raise (Protocol_error "server closed the connection")
  | Ok _ -> ()
  | Error e -> fail e
  | exception Unix.Unix_error (err, _, _) ->
    raise (Protocol_error ("reading the response: " ^ Unix.error_message err))

(* The server may close a connection before reading a byte of it — an
   over-cap or draining listener sends one typed refusal frame and closes —
   so a write can race the close and hit a peer-closed socket (EPIPE, or
   ECONNRESET). That is not a transport failure of its own: the read that
   follows returns the refusal frame the server already sent, or raises
   [Protocol_error] if there is none. No [Unix_error] escapes a write. *)
let send t =
  try ignore (Frame.flush t.output) with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error (err, _, _) ->
    raise (Protocol_error ("sending the request: " ^ Unix.error_message err))

let request_pipelined ?(depth = 32) t reqs =
  if depth < 1 then invalid_arg "Client.request_pipelined: depth must be >= 1";
  if t.closed then raise (Protocol_error "connection is closed");
  (* Keep up to [depth] requests in flight. Each response already in the
     receive window frees a slot that is topped up in the send buffer at
     once; the buffer is written, in one write, only when the next
     response must come from the socket, so the client never blocks on a
     read while it holds unsent bytes. The depth bound is what makes a
     blocking client safe: with both windows' worth of bytes bounded, the
     server can always drain what we sent and we can always drain what it
     responded — neither side ever blocks on write with the other also
     blocked on write. The server decides one connection's frames strictly
     in arrival order, so responses match requests positionally. *)
  let rec loop unsent in_flight acc =
    match unsent with
    | req :: rest when in_flight < depth ->
      Frame.add t.output (Codec.encode_request req);
      loop rest (in_flight + 1) acc
    | _ when in_flight = 0 -> List.rev acc
    | _ -> (
      match next_response t with
      | Some resp -> loop unsent (in_flight - 1) (resp :: acc)
      | None ->
        send t;
        receive t;
        loop unsent in_flight acc)
  in
  loop reqs 0 []

let request t req = List.hd (request_pipelined t [ req ])

let mismatched what = raise (Protocol_error ("mismatched response to " ^ what))

let decision_of = function
  | Codec.Decision d -> Ok d
  | Codec.Error e -> Error e
  | _ -> mismatched "a query"

let query_string ?ctx t ~principal query =
  decision_of (request t (Codec.Query { principal; query; trace = ctx }))

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
  | _ -> mismatched "an explain request"

let explain ?ctx t ~principal q = explain_string ?ctx t ~principal (Cq.Query.to_string q)

let query_batch_string ?depth ?ctx t queries =
  let reqs =
    List.map (fun (principal, query) -> Codec.Query { principal; query; trace = ctx }) queries
  in
  List.map decision_of (request_pipelined ?depth t reqs)

let query_batch ?depth ?ctx t queries =
  query_batch_string ?depth ?ctx t (List.map (fun (p, q) -> (p, Cq.Query.to_string q)) queries)

let ping t =
  match request t Codec.Ping with
  | Codec.Pong -> ()
  | Codec.Error e -> raise (Protocol_error (Errors.to_string e))
  | _ -> mismatched "a ping"

let stats t =
  match request t Codec.Stats with
  | Codec.Stats_doc doc -> doc
  | Codec.Error e -> raise (Protocol_error (Errors.to_string e))
  | _ -> mismatched "a stats request"

let pull ?(follower = "") ?ctx t ~shard ~seg ~off ~max_bytes =
  match request t (Codec.Pull { shard; seg; off; max_bytes; follower; trace = ctx }) with
  | (Codec.Batch _ | Codec.Snapshot _) as r -> Ok r
  | Codec.Error e -> Error e
  | _ -> mismatched "a pull request"
