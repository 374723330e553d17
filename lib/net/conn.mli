(** One accepted connection: a pipelined frame loop, run to completion on
    the connection's own domain.

    Frames come in through one {!Frame.reader} and go out through one
    {!Frame.writer}. Requests on one connection are decided strictly in
    arrival order — responses match requests positionally — but after each
    read the loop decodes {e every} complete frame received before writing
    anything back, and the batch's responses leave in a single write. A
    serial request/response client sees one frame per batch; a pipelining
    client ({!Client.query_batch}) amortizes the write syscall and the
    network round trip across the whole window.

    Robustness is the contract. The socket receive timeout enforces the
    per-connection read deadline, the reader enforces the payload cap and
    CRC, and every failure mode — garbage, torn stream, timeout,
    handler exception, injected {!Disclosure.Faults} fault — funnels into a
    typed {!Errors.t} that is sent to the peer (best-effort) before the
    connection closes. {!serve} never raises and never lets a failure
    escape toward the listener, and none of these paths journal anything:
    a protocol error is not a decision. *)

type config = {
  read_deadline : float;
      (** Seconds the read loop will wait for bytes (socket
          [SO_RCVTIMEO]); expiry closes the connection with
          [Errors.Timeout]. *)
  max_payload : int;
      (** Per-request payload cap, the reader's (see {!Frame.reader}). *)
}

val default_config : config
(** [{ read_deadline = 30.0; max_payload = Frame.default_max_payload }] *)

(** A handler's verdict on one request. *)
type reply =
  | Now of Codec.response  (** Answer immediately (pings, stats, errors). *)
  | Later of (unit -> Codec.response)
      (** The work is already in flight (a query submitted to its shard's
          mailbox); the thunk blocks for the result. The loop dispatches
          {e every} buffered frame before forcing any thunk, so a
          pipelined window crosses the shards as one batch — with group
          commit, one covering flush. Thunks are forced in arrival order;
          a thunk whose frame-batch dies fatally before it is forced is
          dropped (its decision stands server-side, undelivered). *)

val serve :
  ?metrics:Server.Metrics.t ->
  ?config:config ->
  handle:(Codec.request -> reply) ->
  Unix.file_descr ->
  unit
(** [serve ~handle fd] owns [fd]: it runs the frame loop until the peer
    half-closes (clean EOF between frames) or a fatal error occurs, then
    half-closes its own send side and closes the descriptor. [handle] maps
    each request to a {!reply}; a {e fatal} [Codec.Error] (see
    {!Errors.fatal}), whether immediate or deferred, closes the connection
    after the error is sent, and an exception from [handle] or a forced
    thunk fails closed as [Errors.Fault] in that request's place: the
    replies before it are sent first, and every deferred thunk is still
    forced. With [metrics], each frame's
    decode-and-dispatch is timed under the [Net] stage (a deferred await
    is mailbox wait, accounted by the server under [Wait]) and the
    [Net_requests] / [Net_errors] / [Net_bytes_in] / [Net_bytes_out]
    counters are maintained, as are [Net_reads] / [Net_writes], the
    connection's [read(2)] and [write(2)] calls. *)
