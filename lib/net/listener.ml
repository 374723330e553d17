let src = Logs.Src.create "disclosure.net.listener" ~doc:"Accept loop for the networked front-end"

module Log = (val Logs.src_log src : Logs.LOG)

module Metrics = Server.Metrics
module Faults = Disclosure.Faults

type config = {
  max_connections : int;
  backlog : int;
  conn : Conn.config;
}

let default_config = { max_connections = 64; backlog = 16; conn = Conn.default_config }

type t = {
  server : Server.t;
  addr : Addr.t;
  bound : Addr.t;
  listen_fd : Unix.file_descr;
  config : config;
  stopping : bool Atomic.t;
  draining : bool Atomic.t;
      (** {!quiesce} was called: refuse new queries, keep serving pings,
          stats, and replication pulls so an attached follower can finish
          catching up before the hard {!stop}. *)
  extend : (Codec.request -> Codec.response option) option;
      (** Dispatch hook tried before the built-ins — how the replication
          source serves [Pull] without [lib/net] depending on
          [lib/replicate]. Runs on the connection's domain; must be
          domain-safe. *)
  mutable accept_domain : unit Domain.t option;
  mutex : Mutex.t;
  live : (int, Unix.file_descr * unit Domain.t) Hashtbl.t;  (** Guarded by [mutex]. *)
  mutable finished : int list;  (** Conn ids whose domains have returned; guarded by [mutex]. *)
  mutable next_id : int;
  trace : (Obs.Trace.t * int) option;
  trace_mutex : Mutex.t;
      (** Serializes this listener's span writes so its dedicated track has
          one writer at a time, as {!Obs.Trace} requires. *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let metrics t = Server.metrics t.server

(* The request → reply map, run on the connection's domain. Overload comes
   back as an already-resolved [Refused Overload] ticket and crosses the
   wire like any other decision — it is never journaled, same as
   in-process shedding. Queries are submitted here but awaited in the
   deferred thunk ([Conn.Later]), and awaiting runs the shard's round on
   this domain: the frame loop dispatches every buffered frame before
   forcing any await, so a pipelined window runs as one round — with group
   commit, one covering fsync. *)
(* The listener's own span for a served query. With [ctx] (the client's
   trace context from the wire frame) the span joins the client's trace —
   and the same ctx was forwarded to the shard, so client, listener, and
   shard render as one stitched timeline in a merged export. *)
let net_span t ~start_ns ~principal ~query ~ctx decision =
  match t.trace with
  | None -> ()
  | Some (trace, track) ->
    let outcome =
      match decision with
      | Disclosure.Monitor.Answered -> "answered"
      | Disclosure.Monitor.Refused r -> Disclosure.Guard.refusal_to_tag r
    in
    locked t.trace_mutex (fun () ->
        let scope =
          Obs.Trace.query_begin trace ~track ~name:"net" ~start_ns ?ctx ~principal ()
        in
        Obs.Trace.annotate scope "query" query;
        Obs.Trace.query_end scope ~outcome)

(* Shared body of [Query] and [Explain] requests: lifecycle gate, parse,
   submit now / await in the deferred thunk. *)
let serve_query t ~principal ~query ~ctx ~explain =
  (* Only the listener's own lifecycle gates here: a not-yet-started
     server queues submissions in its mailboxes (the overload tests
     depend on that), and a stopped server's submit raises — mapped to
     [Shutting_down] below. *)
  if Atomic.get t.stopping || Atomic.get t.draining then
    Conn.Now
      (Codec.Error (Errors.shutting_down "server is draining; no new queries accepted"))
  else
    match Cq.Parser.query query with
    | Error msg -> Conn.Now (Codec.Error (Errors.bad_request msg))
    | Ok q -> (
      let start_ns = Disclosure.Mclock.now_ns () in
      match
        if explain then begin
          let ticket = Server.submit_explained ?ctx t.server ~principal q in
          fun () ->
            let decision, explanation = Server.await_explained ticket in
            net_span t ~start_ns ~principal ~query ~ctx decision;
            match explanation with
            | Some e -> Codec.Explained { decision; doc = Codec.explain_to_json e }
            | None -> Codec.Decision decision
        end
        else begin
          let ticket = Server.submit ?ctx t.server ~principal q in
          fun () ->
            let decision = Server.await ticket in
            net_span t ~start_ns ~principal ~query ~ctx decision;
            Codec.Decision decision
        end
      with
      | thunk -> Conn.Later thunk
      | exception Disclosure.Service.Unknown_principal p ->
        Conn.Now (Codec.Error (Errors.unknown_principal p))
      | exception Invalid_argument msg ->
        (* submit after stop — the race window between the gate above and
           the mailbox close. Fail closed, don't crash the connection
           handler. *)
        Conn.Now (Codec.Error (Errors.shutting_down msg)))

let dispatch_builtin t req =
  match req with
  | Codec.Ping -> Conn.Now Codec.Pong
  | Codec.Pull _ ->
    Conn.Now (Codec.Error (Errors.bad_request "no replication source attached"))
  | Codec.Stats -> Conn.Now (Codec.Stats_doc (Server.stats_json t.server))
  | Codec.Query { principal; query; trace } ->
    serve_query t ~principal ~query ~ctx:trace ~explain:false
  | Codec.Explain { principal; query; trace } ->
    serve_query t ~principal ~query ~ctx:trace ~explain:true

let dispatch t req =
  match (match t.extend with None -> None | Some f -> f req) with
  | Some resp -> Conn.Now resp
  | None -> dispatch_builtin t req

(* Best-effort single-frame reply used when a connection is refused at
   accept: no [Conn.t] exists yet. *)
let refuse_at_accept t fd error =
  Metrics.incr (metrics t) Metrics.Net_rejected;
  (try
     let frame = Frame.encode (Codec.encode_response (Codec.Error error)) in
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     ignore (Unix.write fd (Bytes.unsafe_of_string frame) 0 (String.length frame))
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let reap t =
  let ready =
    locked t.mutex (fun () ->
        let ids = t.finished in
        t.finished <- [];
        List.filter_map
          (fun id ->
            match Hashtbl.find_opt t.live id with
            | Some (_, d) ->
              Hashtbl.remove t.live id;
              Some d
            | None -> None)
          ids)
  in
  List.iter Domain.join ready

let spawn_conn t fd =
  let id = locked t.mutex (fun () -> let id = t.next_id in t.next_id <- id + 1; id) in
  let m = metrics t in
  let d =
    Domain.spawn (fun () ->
        Conn.serve ~metrics:m ~config:t.config.conn ~handle:(dispatch t) fd;
        locked t.mutex (fun () -> t.finished <- id :: t.finished))
  in
  locked t.mutex (fun () -> Hashtbl.replace t.live id (fd, d))

let live_count t = locked t.mutex (fun () -> Hashtbl.length t.live)

let accept_loop t =
  while not (Atomic.get t.stopping) do
    reap t;
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
      (* [stop] closed the listening socket under us; anything else here is
         a dying listener either way. *)
      if not (Atomic.get t.stopping) then
        Log.err (fun m -> m "listening socket failed; shutting down accept loop");
      Atomic.set t.stopping true
    | fd, _peer -> (
      match Faults.trip Faults.Net_accept with
      | exception exn ->
        (* An accept-stage fault costs exactly this connection. *)
        refuse_at_accept t fd (Errors.fault (Printexc.to_string exn))
      | () ->
        if Atomic.get t.stopping then
          refuse_at_accept t fd (Errors.shutting_down "server is draining")
        else if live_count t >= t.config.max_connections then
          refuse_at_accept t fd
            (Errors.busy
               (Printf.sprintf "connection cap of %d reached" t.config.max_connections))
        else (
          Metrics.incr (metrics t) Metrics.Net_accepted;
          spawn_conn t fd))
  done

let create ?(config = default_config) ~server addr =
  if config.max_connections < 1 then invalid_arg "Listener.create: max_connections < 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match addr with
  | Addr.Unix_socket path when Sys.file_exists path -> (
    (* A stale socket file from a dead server would make bind fail. *)
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
  (try
     (match addr with Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true | _ -> ());
     Unix.bind fd (Addr.to_sockaddr addr);
     Unix.listen fd config.backlog
   with exn ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise exn);
  let bound =
    match (addr, Unix.getsockname fd) with
    | Addr.Tcp (host, _), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
    | _ -> addr
  in
  let t =
    {
      server;
      addr;
      bound;
      listen_fd = fd;
      config;
      stopping = Atomic.make false;
      draining = Atomic.make false;
      extend = None;
      accept_domain = None;
      mutex = Mutex.create ();
      live = Hashtbl.create 16;
      finished = [];
      next_id = 0;
      trace = None;
      trace_mutex = Mutex.create ();
    }
  in
  t

let create ?config ?trace ?extend ~server addr =
  let t = create ?config ~server addr in
  let t = match trace with None -> t | Some tr -> { t with trace = Some tr } in
  let t = match extend with None -> t | Some f -> { t with extend = Some f } in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  Log.info (fun m -> m "listening on %a" Addr.pp t.bound);
  t

let quiesce t =
  if not (Atomic.exchange t.draining true) then
    Log.info (fun m -> m "listener on %a draining: new queries refused" Addr.pp t.bound)

let is_draining t = Atomic.get t.draining

let address t = t.bound

let connections t = live_count t

let stop t =
  Atomic.set t.draining true;
  if not (Atomic.exchange t.stopping true) then begin
    (* Wake the accept loop: closing the listening socket makes the blocked
       [accept] fail, and the loop treats that as shutdown. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.accept_domain with None -> () | Some d -> Domain.join d);
    (* Half-close every live connection's receive side: its read loop sees
       EOF, finishes the request in flight (the send side still works, so
       the response goes out), and exits cleanly — graceful drain, not an
       axe. *)
    let conns =
      locked t.mutex (fun () -> Hashtbl.fold (fun _ (fd, d) acc -> (fd, d) :: acc) t.live [])
    in
    List.iter
      (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, d) -> Domain.join d) conns;
    locked t.mutex (fun () ->
        Hashtbl.reset t.live;
        t.finished <- []);
    (match t.addr with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ());
    Log.info (fun m -> m "listener on %a stopped" Addr.pp t.bound)
  end
