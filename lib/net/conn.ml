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
   frame decoder enforces the payload cap, and every failure mode funnels
   into a typed [Errors.t] — sent to the peer when the socket still works,
   and fatal ones close the connection. Requests are decided strictly in
   arrival order, but every complete frame already buffered is decoded and
   handled before anything is written back, and the batch's responses go
   out in one vectorized write — a pipelining client pays one syscall per
   batch, not one round trip per request. Nothing here ever touches the
   journal: a protocol error is not a decision. *)

let chunk = 4096

type wire = {
  fd : Unix.file_descr;
  config : config;
  metrics : Metrics.t option;
  buf : Buffer.t;  (** Bytes received but not yet consumed as frames. *)
  scratch : Bytes.t;
}

let count w c n =
  match w.metrics with None -> () | Some m -> Metrics.add m c n

let send w response =
  Disclosure.Faults.trip Disclosure.Faults.Net_write;
  let frame = Frame.encode (Codec.encode_response response) in
  Fdio.write_all w.fd frame;
  count w Metrics.Net_bytes_out (String.length frame)

(* Best-effort: the peer may already be gone when we try to tell it why we
   are closing, and that must not mask the original error. *)
let send_quietly w response = try send w response with _ -> ()

type step =
  | Continue
  | Close_clean
  | Close_error of Errors.t

type reply =
  | Now of Codec.response
  | Later of (unit -> Codec.response)

(* Consume every complete frame currently buffered, then flush all their
   responses with a single write — in two phases:

   Phase 1 walks one snapshot of the receive buffer at increasing offsets
   ([Frame.decode_sub], one compaction per batch instead of one per frame
   — the old decode-at-zero loop recopied the whole buffer per frame,
   O(n²) across a deep pipeline), dispatching each frame as it decodes.
   The handler answers [Now resp] for immediate work or [Later thunk] for
   deferred work (the listener submits the query into its shard's mailbox
   and defers the await) — so by the end of phase 1 {e every} buffered
   query is queued on its shard, and the first await of phase 2 runs a
   pipelining client's window as one round: one group-commit fsync covers
   it.

   Phase 2 forces the deferred replies in arrival order (responses match
   requests positionally) and vectorizes the whole batch's responses into
   a single write. The [Net] stage histogram times each frame's phase-1
   work — decode and dispatch; a deferred await runs the shard's round,
   whose queueing the server already accounts under [Wait].

   A raised [Net_write] fault (or a handler/thunk exception) propagates to
   [serve]'s backstop exactly as it did when each response was written
   eagerly: the connection dies with this batch's buffered responses
   undelivered, which a pipelining client must treat like any other torn
   connection. *)
let drain_frames w ~handle =
  if Buffer.length w.buf = 0 then Continue
  else begin
    let data = Buffer.contents w.buf in
    let len = String.length data in
    let off = ref 0 in
    let verdict = ref Continue in
    let halted = ref false in
    let pending = ref [] (* replies in reverse arrival order *) in
    while (not !halted) && !off < len do
      match Frame.decode_sub ~max_payload:w.config.max_payload data ~off:!off with
      | Frame.Need_more _ -> halted := true
      | Frame.Corrupt e ->
        verdict := Close_error e;
        halted := true
      | Frame.Frame { payload; consumed } ->
        off := !off + consumed;
        let step =
          let run () =
            match
              Disclosure.Faults.trip Disclosure.Faults.Net_decode;
              Codec.decode_request payload
            with
            | Error e when Errors.fatal e -> Close_error e
            | Error e ->
              pending := Now (Codec.Error e) :: !pending;
              count w Metrics.Net_errors 1;
              Continue
            | Ok req -> (
              match handle req with
              | Now (Codec.Error e) when Errors.fatal e ->
                (* The handler itself failed closed (fault, shutdown):
                   report and close. *)
                Close_error e
              | reply ->
                pending := reply :: !pending;
                count w Metrics.Net_requests 1;
                Continue)
            | exception exn ->
              Close_error (Errors.fault (Printexc.to_string exn))
          in
          match w.metrics with
          | None -> run ()
          | Some m -> Metrics.time m Metrics.Net run
        in
        (match step with
        | Continue -> ()
        | s ->
          verdict := s;
          halted := true)
    done;
    (* One compaction for the whole batch. *)
    Buffer.clear w.buf;
    if !off < len then Buffer.add_substring w.buf data !off (len - !off);
    (* Frames decoded per wakeup = the client's effective pipeline depth:
       mean 1 means request/response lockstep, deeper means the window is
       actually landing in shard batches together. *)
    (match w.metrics with
    | Some m when !pending <> [] ->
      Metrics.record_size m Metrics.Pipeline_window (List.length !pending)
    | _ -> ());
    (* Phase 2: force every deferred reply, in order, then buffer the
       responses. Every thunk is forced, even past a fatal reply: forcing is
       what runs the shard round that decides a submitted query, and an
       accepted query must not wait for some unrelated caller to run it. A
       fatal deferred response closes like a fatal immediate one —
       responses completed before it still go out first, then [serve]
       sends the closing error frame; replies after it are dropped (their
       queries were decided; the client sees a torn connection). *)
    let responses =
      List.map (function Now resp -> resp | Later force -> force ()) (List.rev !pending)
    in
    let out = Buffer.create chunk in
    let respond response =
      Disclosure.Faults.trip Disclosure.Faults.Net_write;
      Buffer.add_string out (Frame.encode (Codec.encode_response response))
    in
    let stop = ref false in
    List.iter
      (fun resp ->
        if not !stop then
          match resp with
          | Codec.Error e when Errors.fatal e ->
            verdict := Close_error e;
            stop := true
          | resp -> respond resp)
      responses;
    (* One vectorized write for every response buffered this batch. *)
    if Buffer.length out > 0 then begin
      Fdio.write_all w.fd (Buffer.contents out);
      count w Metrics.Net_bytes_out (Buffer.length out)
    end;
    !verdict
  end

let read_step w ~handle =
  match Unix.read w.fd w.scratch 0 chunk with
  | 0 ->
    if Buffer.length w.buf = 0 then Close_clean
    else
      Close_error
        (Errors.torn
           (Printf.sprintf "peer closed with %d buffered bytes mid-frame" (Buffer.length w.buf)))
  | n ->
    count w Metrics.Net_bytes_in n;
    Buffer.add_subbytes w.buf w.scratch 0 n;
    drain_frames w ~handle
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Close_error (Errors.timeout ~seconds:w.config.read_deadline)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Continue
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    if Buffer.length w.buf = 0 then Close_clean
    else Close_error (Errors.torn "connection reset mid-frame")

let serve ?metrics ?(config = default_config) ~handle fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.read_deadline
   with Unix.Unix_error _ -> () (* not a socket under some test harnesses *));
  let w = { fd; config; metrics; buf = Buffer.create chunk; scratch = Bytes.create chunk } in
  let rec loop () =
    match read_step w ~handle with
    | Continue -> loop ()
    | Close_clean -> ()
    | Close_error e ->
      count w Metrics.Net_errors 1;
      Log.debug (fun m -> m "closing connection: %a" Errors.pp e);
      send_quietly w (Codec.Error e)
  in
  (try loop ()
   with exn ->
     (* Absolute backstop: a connection failure is never allowed to
        propagate into the listener. *)
     count w Metrics.Net_errors 1;
     send_quietly w (Codec.Error (Errors.fault (Printexc.to_string exn))));
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()
