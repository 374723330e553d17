let src = Logs.Src.create "disclosure.net.conn" ~doc:"Per-connection frame loop"

module Log = (val Logs.src_log src : Logs.LOG)

module Metrics = Server.Metrics

type config = {
  read_deadline : float;
  max_payload : int;
}

let default_config = { read_deadline = 30.0; max_payload = Frame.default_max_payload }

(* One reference-monitor connection: a pipelined frame loop on its own
   domain. The socket's receive timeout enforces the read deadline, the
   frame reader enforces the payload cap, and every failure mode funnels
   into a typed [Errors.t] — sent to the peer when the socket still works,
   and fatal ones close the connection. Requests are decided strictly in
   arrival order, but every complete frame already received is decoded and
   handled before anything is written back, and the batch's responses go
   out in one write — a pipelining client pays one syscall per batch, not
   one round trip per request. Nothing here ever touches the journal: a
   protocol error is not a decision. *)

type wire = {
  metrics : Metrics.t option;
  input : Frame.reader;
  output : Frame.writer;
}

let count w c n =
  match w.metrics with None -> () | Some m -> Metrics.add m c n

let respond w response =
  Disclosure.Faults.trip Disclosure.Faults.Net_write;
  Frame.add w.output (Codec.encode_response response)

let flush w =
  let before = Frame.writes w.output in
  count w Metrics.Net_bytes_out (Frame.flush w.output);
  count w Metrics.Net_writes (Frame.writes w.output - before)

(* Best-effort: the peer may already be gone when we try to tell it why we
   are closing, and that must not mask the original error. *)
let send_quietly w response = try respond w response; flush w with _ -> ()

type reply =
  | Now of Codec.response
  | Later of (unit -> Codec.response)

let fault_of exn = Errors.fault (Printexc.to_string exn)

(* Decode one request frame and hand it to [handle], collecting its reply
   on [pending]; [Some e] is a fatal error that ends the connection. A
   raising [handle] fails closed in the request's place: the replies
   already collected still go out, then the fault. *)
let dispatch w ~handle ~pending payload =
  match
    Disclosure.Faults.trip Disclosure.Faults.Net_decode;
    Codec.decode_request payload
  with
  | Error e when Errors.fatal e -> Some e
  | Error e ->
    pending := Now (Codec.Error e) :: !pending;
    count w Metrics.Net_errors 1;
    None
  | Ok req -> (
    match handle req with
    | Now (Codec.Error e) when Errors.fatal e ->
      (* The handler itself failed closed (fault, shutdown): report and
         close. *)
      Some e
    | reply ->
      pending := reply :: !pending;
      count w Metrics.Net_requests 1;
      None
    | exception exn -> Some (fault_of exn))
  | exception exn -> Some (fault_of exn)

(* Consume every complete frame received so far, then flush all their
   responses with a single write — in two phases:

   Phase 1 takes frames from the reader until it holds at most a frame
   prefix, dispatching each as it decodes. The handler answers [Now resp]
   for immediate work or [Later thunk] for deferred work (the listener
   submits the query into its shard's mailbox and defers the await) — so
   by the end of phase 1 {e every} received query is queued on its shard,
   and the first await of phase 2 runs a pipelining client's window as one
   round: one group-commit flush covers it.

   Phase 2 forces the deferred replies in arrival order (responses match
   requests positionally) and appends the whole batch's responses to the
   writer for a single write. The [Net] stage histogram times each frame's
   phase-1 work — decode and dispatch; a deferred await runs the shard's
   round, whose queueing the server already accounts under [Wait].

   A raising handler or thunk costs its own request only: it is answered
   in place with a fatal [Errors.fault], like a fatal reply. A raised
   [Net_write] fault propagates to [serve]'s backstop exactly as it did
   when each response was written eagerly: the connection dies with this
   batch's responses undelivered (the fault stays armed, so the
   backstop's own send trips it too), which a pipelining client must
   treat like any other torn connection. *)
let drain_frames w ~handle =
  let pending = ref [] (* replies in reverse arrival order *) in
  let rec decode () =
    match Frame.next w.input with
    | Ok None -> None
    | Error e -> Some e
    | Ok (Some payload) -> (
      let run () = dispatch w ~handle ~pending payload in
      match match w.metrics with None -> run () | Some m -> Metrics.time m Metrics.Net run with
      | None -> decode ()
      | fatal -> fatal)
  in
  let fatal = decode () in
  (* Frames decoded per wakeup = the client's effective pipeline depth:
     mean 1 means request/response lockstep, deeper means the window is
     actually landing in shard batches together. *)
  (match w.metrics with
  | Some m when !pending <> [] ->
    Metrics.record_size m Metrics.Pipeline_window (List.length !pending)
  | _ -> ());
  (* Phase 2: force every deferred reply, in order, then buffer the
     responses. Every thunk is forced, even past a fatal or raising one:
     forcing is what runs the shard round that decides a submitted query,
     and an accepted query must not wait for some unrelated caller to run
     it. A fatal deferred response closes like a fatal immediate one —
     responses completed before it still go out first, then [serve] sends
     the closing error frame; replies after it are dropped (their queries
     were decided; the client sees a torn connection). *)
  let rec buffer = function
    | [] -> fatal
    | Codec.Error e :: _ when Errors.fatal e -> Some e
    | resp :: rest ->
      respond w resp;
      buffer rest
  in
  let fatal =
    buffer
      (List.map
         (function
           | Now resp -> resp
           | Later force -> ( try force () with exn -> Codec.Error (fault_of exn)))
         (List.rev !pending))
  in
  flush w;
  fatal

let serve ?metrics ?(config = default_config) ~handle fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.read_deadline
   with Unix.Unix_error _ -> () (* not a socket under some test harnesses *));
  let w =
    {
      metrics;
      input = Frame.reader ~max_payload:config.max_payload fd;
      output = Frame.writer fd;
    }
  in
  let close_with e =
    count w Metrics.Net_errors 1;
    Log.debug (fun m -> m "closing connection: %a" Errors.pp e);
    send_quietly w (Codec.Error e)
  in
  let fill () =
    let before = Frame.reads w.input in
    let r = Frame.fill w.input in
    count w Metrics.Net_reads (Frame.reads w.input - before);
    r
  in
  let rec loop () =
    match fill () with
    | Ok 0 -> ()
    | Ok n -> (
      count w Metrics.Net_bytes_in n;
      match drain_frames w ~handle with None -> loop () | Some e -> close_with e)
    | Error e -> close_with e
  in
  (try loop ()
   with exn ->
     (* Absolute backstop: a connection failure is never allowed to
        propagate into the listener. *)
     count w Metrics.Net_errors 1;
     send_quietly w (Codec.Error (Errors.fault (Printexc.to_string exn))));
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
