(** The accept loop: a {!Server.t} behind a socket.

    One domain accepts; each accepted connection gets its own domain
    running {!Conn.serve}, whose handler parses the query
    ({!Cq.Parser.query}) and submits into the server's shard mailboxes —
    foreign-domain submission is exactly what the mailboxes are for, and
    the decision sequence per principal is identical to calling
    {!Server.submit_sync} in-process. Overload crosses the wire as the
    same already-resolved [Refused Overload] it is in-process: never
    journaled, monitor untouched.

    Fail-closed throughout: the connection cap refuses with
    [Errors.Busy]; an armed {!Disclosure.Faults.Net_accept} fault costs
    exactly the affected connection; a connection failure never reaches
    the accept loop. {!stop} is a graceful drain — stop accepting,
    half-close every live connection's receive side so in-flight requests
    still get their responses, join everything, unlink the socket file. *)

type config = {
  max_connections : int;
      (** Concurrent-connection cap; excess connects are answered with a
          [Busy] error frame and closed. *)
  backlog : int;  (** [listen] backlog. *)
  conn : Conn.config;  (** Per-connection deadline and payload cap. *)
}

val default_config : config
(** [{ max_connections = 64; backlog = 16; conn = Conn.default_config }] *)

type t

val create :
  ?config:config ->
  ?trace:Obs.Trace.t * int ->
  ?extend:(Codec.request -> Codec.response option) ->
  server:Server.t ->
  Addr.t ->
  t
(** Bind, listen, and spawn the accept domain. The server may be in any
    lifecycle state: queries submitted before {!Server.start} queue in the
    mailboxes (the overload tests use this), queries after {!Server.stop}
    are refused with [Shutting_down]. A stale Unix-socket file is
    unlinked before binding. [trace] is a recorder plus a track index
    {e dedicated to this listener} (no shard may write it); the listener
    serializes its own span writes, recording one ["net"] root span per
    wire query with the principal, query text, and outcome.

    [extend] is a dispatch hook tried {e before} the built-in handlers on
    every request — returning [Some] answers the request, [None] falls
    through. This is how a replication source serves [Codec.Pull] without
    [lib/net] depending on the replication library; without [extend],
    [Pull] is refused with [Bad_request]. The hook runs on connection
    domains concurrently and must be domain-safe.
    @raise Unix.Unix_error when binding fails (address in use, permission).
    @raise Invalid_argument on [max_connections < 1] or an unresolvable
    TCP host. *)

val address : t -> Addr.t
(** The bound address — for [Tcp (host, 0)], the kernel-assigned port. *)

val connections : t -> int
(** Live connections right now (racy snapshot). *)

val quiesce : t -> unit
(** Enter drain mode without closing anything: new {e queries} are refused
    with [Shutting_down], but connections stay open and pings, stats, and
    replication pulls keep being served — so an attached follower can
    finish shipping the committed tail before the hard {!stop}. Part of
    the graceful-drain sequence: [quiesce] → [Server.drain] → wait for the
    follower to catch up → [stop]. Idempotent. *)

val stop : t -> unit
(** Graceful drain, described above. Does {e not} stop the server — the
    caller owns its lifecycle (typically: [stop listener], then
    [Server.drain], then [Server.stop]). Idempotent. *)
