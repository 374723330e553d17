(* serve: a workload on the sharded multicore serving layer, the framed
   wire protocol with --listen, or a hot standby with --follow.

   The same deployment configs and workload format as `replay`, but
   queries are dispatched to Server's shards, which their callers run
   (per-principal decision sequences are identical to `replay` by
   construction; see lib/server/server.mli). *)

open Cmdliner

module Follower = Replicate.Follower

type tracing = {
  trace_out : string option;
  sample : int;
  slow_ms : float option;
  metrics_out : string option;
}

type follow = {
  primary : Net.Addr.t;
  poll_interval : float;
  failover_after : float;
  follower_id : string;
}

(* Run an already-started server behind a listener on [addr] (shipping
   its journal to followers through [source], if any) until
   SIGINT/SIGTERM, reloading the policy file online on SIGHUP (validate,
   then swap with zero downtime), then drain gracefully: refuse new queries
   first (quiesce), drain the shards, let an attached replication follower
   finish pulling the committed tail, and only then close connections. *)
let serve_until_signal ~server ~source ~lconfig ?trace ~config_file ~banner addr =
  let extend = Option.map Replicate.Source.handler source in
  let listener = Net.Listener.create ~config:lconfig ?trace ?extend ~server addr in
  Format.printf "listening on %s%s@." (Net.Addr.to_string (Net.Listener.address listener)) banner;
  Format.print_flush ();
  let reload_requested = Atomic.make false in
  (match Sys.os_type with
  | "Unix" ->
    Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set reload_requested true))
  | _ -> ());
  Cli.until_signal (fun () ->
      if Atomic.exchange reload_requested false then
        (match Disclosure.Policyfile.parse_file config_file with
        | Error e -> Format.eprintf "reload rejected: %s@." e
        | Ok policy -> (
          match Server.reload server policy with
          | Ok () ->
            Format.printf "policy reloaded from %s@." config_file;
            Format.print_flush ()
          | Error e -> Format.eprintf "reload failed: %s@." e));
      false);
  Net.Listener.quiesce listener;
  Server.drain server;
  (match source with
  | Some src
    when Array.exists Option.is_some (Replicate.Source.cursors src) ->
    (* Only wait for a follower that actually attached: with no pull ever
       received there is no shipped stream to flush, and [caught_up] would
       stall the drain for the full timeout on a non-empty journal. *)
    if not (Replicate.Source.await_caught_up src ~timeout_s:10.0) then
      Format.eprintf "drain: follower did not catch up within 10s@."
  | Some _ | None -> ());
  Net.Listener.stop listener;
  Server.drain server

(* Hot-standby mode: no server of our own until (auto-)promotion. The
   follower's poll domain pulls; this domain only watches for a signal, a
   divergence, or the primary staying unreachable past --failover-after. *)
let standby ~config ~config_file ~limits ~journal ~sconfig ~stats ~listen ~lconfig f =
  let mirror =
    match journal with
    | Some j -> j
    | None -> failwith "--follow requires --journal (the local mirror base path)"
  in
  let fol =
    match
      Follower.create ~id:f.follower_id ~limits ?resident:sconfig.Server.resident
        ~journal:mirror ~shards:sconfig.Server.domains config
    with
    | Ok fol -> fol
    | Error e -> failwith ("follower: " ^ e)
  in
  Format.printf "following %s into mirror %s (%d shard(s))%s@."
    (Net.Addr.to_string f.primary) mirror sconfig.Server.domains
    (if f.failover_after > 0.0 then
       Printf.sprintf "; auto-failover after %.1fs unreachable" f.failover_after
     else "");
  Format.print_flush ();
  let stop_following = Cli.follow fol ~primary:f.primary ~interval:f.poll_interval in
  let failover = ref false in
  Cli.until_signal (fun () ->
      failover :=
        f.failover_after > 0.0 && Follower.since_last_pull fol >= f.failover_after;
      !failover || Follower.last_error fol <> None);
  stop_following ();
  (match Follower.last_error fol with
  | Some e -> failwith ("replication diverged (fail closed): " ^ e)
  | None -> ());
  if not !failover then begin
    if stats then Format.printf "%s@." (Follower.stats_json fol);
    0
  end
  else begin
    Format.printf "primary unreachable for %.1fs; promoting from mirror %s@."
      f.failover_after mirror;
    Format.print_flush ();
    match Follower.promote fol ~config:sconfig () with
    | Error e -> failwith ("failover failed: " ^ e)
    | Ok (server, replayed) ->
      Format.printf "promoted: replayed %d decision record(s) from the mirrored prefix@."
        replayed;
      Format.print_flush ();
      Server.start server;
      (match listen with
      | Some addr ->
        let source = Replicate.Source.create ~server ~journal:mirror () in
        serve_until_signal ~server ~source:(Some source) ~lconfig ~config_file
          ~banner:"; SIGINT/SIGTERM drains, SIGHUP reloads" addr
      | None -> ());
      if stats then Format.printf "@.%s@." (Obs.Json.to_string (Server.stats_json server));
      Server.stop server;
      0
  end

let primary ~config ~resolved ~config_file ~syntax ~workload ~limits ~journal ~sconfig
    ~stats ~tracing ~listen ~lconfig =
  let domains = sconfig.Server.domains in
  let trace =
    if tracing.trace_out <> None || tracing.slow_ms <> None then
      (* With --listen the listener gets a dedicated extra track for its
         "net" spans; shards use tracks 0..domains-1. *)
      let tracks = domains + if listen <> None then 1 else 0 in
      Some (Obs.Trace.create ~tracks ~sample:tracing.sample ?slow_ms:tracing.slow_ms ())
    else None
  in
  let server =
    Server.create ~limits ?journal ?trace ~config:sconfig
      (Disclosure.Pipeline.create config.Disclosure.Policyfile.views)
  in
  let dump () =
    (match (trace, tracing.trace_out) with
    | Some tr, Some path -> Cli.write_file path (Obs.Chrome.export tr)
    | _ -> ());
    match tracing.metrics_out with
    | Some path -> Cli.write_file path (Server.prometheus server)
    | None -> ()
  in
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump ()))
  | _ -> ());
  List.iter
    (fun (principal, partitions) -> Server.register server ~principal ~partitions)
    resolved;
  Server.start server;
  let count =
    match listen with
    | Some addr ->
      (* Network mode: put the server behind a socket and run until a
         signal asks for a graceful drain. Workload input is not read.
         A journaled server also ships its journal to replication
         followers (Pull requests served straight off the segments). The
         decisions went to clients, so the summary reads the monitors. *)
      let ltrace = Option.map (fun tr -> (tr, domains)) trace in
      let source =
        Option.map
          (fun j -> Replicate.Source.create ?trace:ltrace ~server ~journal:j ())
          journal
      in
      serve_until_signal ~server ~source ~lconfig ?trace:ltrace ~config_file
        ~banner:
          (Printf.sprintf " (%d shard(s)%s); SIGINT/SIGTERM drains, SIGHUP reloads the policy"
             domains
             (if source <> None then ", replication source attached" else ""))
        addr;
      fun principal ->
        let answered, refused = Server.stats server ~principal in
        (answered, refused, [])
    | None ->
      let tickets =
        Cli.workload workload
        |> Seq.map (fun (principal, query_s) ->
               let q = Cli.cq_of (Cli.parse_query syntax query_s) in
               (principal, query_s, Server.submit server ~principal q))
        |> List.of_seq
      in
      let decisions =
        List.map
          (fun (principal, query_s, ticket) ->
            let d = Server.await ticket in
            Cli.print_decision principal query_s d;
            (principal, d))
          tickets
      in
      Server.drain server;
      Cli.tally decisions
  in
  Cli.summary ~principals:(Server.principals server)
    ~alive:(fun principal -> Server.alive server ~principal)
    count;
  (* Sample stats before [stop]: stopping closes the shard stores, so the
     tiered-store block would read as the zero accumulator afterwards. *)
  let stats_doc = if stats then Some (Obs.Json.to_string (Server.stats_json server)) else None in
  Server.stop server;
  dump ();
  (match trace with
  | Some tr when Obs.Trace.slow_log tr <> [] ->
    Format.eprintf "@.slow-query log:@.%a@." Obs.Trace.pp_slow_log tr
  | _ -> ());
  Option.iter (Format.printf "@.%s@.") stats_doc;
  0

let run () config_file syntax workload limits journal sconfig stats tracing listen lconfig
    follow =
  let config = Cli.or_fail (Disclosure.Policyfile.parse_file config_file) in
  (* Resolved before either mode starts, so a bad policy fails the same way. *)
  let resolved = Cli.or_fail (Disclosure.Policyfile.resolve config) in
  match follow with
  | Some f -> standby ~config ~config_file ~limits ~journal ~sconfig ~stats ~listen ~lconfig f
  | None ->
    primary ~config ~resolved ~config_file ~syntax ~workload ~limits ~journal ~sconfig
      ~stats ~tracing ~listen ~lconfig

(* --- arguments, one term per record they fill ----------------------------- *)

let server_config =
  let d = Server.default_config in
  let domains =
    Arg.(
      value
      & opt Cli.positive_int d.Server.domains
      & info [ "domains" ] ~docv:"N" ~doc:
            "Shards. Principals are split across them by a stable hash; \
             callers run each shard's queue themselves, so different shards \
             decide in parallel on different callers.")
  in
  let mailbox =
    Arg.(
      value
      & opt Cli.positive_int d.Server.mailbox_capacity
      & info [ "mailbox" ] ~docv:"N"
          ~doc:
            "Per-shard mailbox bound; submissions beyond it are shed as \
             'refused (server overloaded)' instead of blocking.")
  in
  let drain =
    Arg.(
      value
      & opt Cli.positive_int d.Server.drain
      & info [ "drain" ] ~docv:"N"
          ~doc:
            "Max mailbox messages one round of a shard runs — batching amortizes \
             the claim under load without changing processing order.")
  in
  let group_commit =
    Arg.(
      value & flag
      & info [ "group-commit" ]
          ~doc:
            "Batch journal flushes across each round of a shard: one covering \
             fsync per round instead of one per decision, with every \
             decision's reply held until the covering flush. Decisions, journal \
             bytes, and recovery are bit-identical to per-decision commits; a \
             failed covering flush refuses the whole batch fail-closed.")
  in
  let cache =
    Arg.(
      value
      & opt int d.Server.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Per-shard label-cache entries; 0 disables the cache.")
  in
  let resident =
    Arg.(
      value
      & opt (some Cli.resident_conv) None
      & info [ "resident" ] ~docv:"BUDGET"
          ~doc:
            "Per-shard resident-set budget for the tiered principal store: keep \
             at most $(docv) principals' monitors in memory (or, with a \
             $(b,b)/$(b,kb)/$(b,mb)/$(b,gb) suffix, approximately that much \
             resident heap). Cold principals spill to \
             $(i,BASE).shard$(i,i).spill and fault back in on first touch; \
             decisions, journal bytes, and checkpoint bytes are bit-identical \
             to the unbounded default.")
  in
  let checkpoint_every =
    Arg.(
      value
      & opt int d.Server.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint each shard's journal every $(docv) decisions (seal the \
             active segment, snapshot monitor state to $(i,BASE).shard$(i,i).ckpt, \
             compact covered segments); 0 disables. Requires $(b,--journal).")
  in
  let segment_bytes =
    Arg.(
      value
      & opt int d.Server.segment_bytes
      & info [ "segment-bytes" ] ~docv:"BYTES"
          ~doc:
            "Rotate a shard's active journal segment once it reaches $(docv) \
             bytes; 0 never rotates. Requires $(b,--journal).")
  in
  let make domains mailbox_capacity drain group_commit cache_capacity resident
      checkpoint_every segment_bytes =
    {
      Server.domains;
      mailbox_capacity;
      cache_capacity;
      checkpoint_every;
      segment_bytes;
      drain;
      group_commit;
      resident;
    }
  in
  Term.(
    const make $ domains $ mailbox $ drain $ group_commit $ cache $ resident
    $ checkpoint_every $ segment_bytes)

let listener_config =
  let max_connections =
    Arg.(
      value
      & opt Cli.positive_int Net.Listener.default_config.Net.Listener.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent-connection cap with $(b,--listen); excess connects are \
             answered with a $(i,busy) error frame and closed.")
  in
  let conn_deadline =
    Arg.(
      value
      & opt Cli.nonneg_float Net.Conn.default_config.Net.Conn.read_deadline
      & info [ "conn-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection read deadline with $(b,--listen): a connection that \
             sends no bytes for $(docv) seconds is closed with a $(i,timeout) \
             error frame. 0 disables.")
  in
  let max_frame =
    Arg.(
      value
      & opt Cli.positive_int Net.Frame.default_max_payload
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Per-frame payload cap with $(b,--listen); a frame declaring more is \
             rejected before its payload is buffered.")
  in
  let make max_connections read_deadline max_payload =
    {
      Net.Listener.default_config with
      Net.Listener.max_connections;
      conn = { Net.Conn.read_deadline; max_payload };
    }
  in
  Term.(const make $ max_connections $ conn_deadline $ max_frame)

let tracing =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the sampled queries at exit (and \
             on SIGUSR1). Load it in chrome://tracing or ui.perfetto.dev; each shard \
             renders as its own track. Enables tracing.")
  in
  let sample =
    Arg.(
      value & opt Cli.nonneg_int 1
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Head-sample one query in $(docv) per shard (1 = every query, 0 = none). \
             Refused and slower-than $(b,--slow-ms) queries are always traced \
             regardless.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some Cli.nonneg_float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: queries at or over it are always \
             traced and listed in the slow-query log printed on stderr at exit. \
             Enables tracing.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus text-exposition dump of the serving metrics at exit \
             (and on SIGUSR1).")
  in
  let make trace_out sample slow_ms metrics_out = { trace_out; sample; slow_ms; metrics_out } in
  Term.(const make $ trace_out $ sample $ slow_ms $ metrics_out)

let follow =
  let primary =
    Arg.(
      value
      & opt (some Cli.addr_conv) None
      & info [ "follow" ] ~docv:"ADDR"
          ~doc:
            "Run as a hot-standby follower of the primary at $(docv): continuously \
             pull its journal into the local $(b,--journal) mirror (a bit-identical \
             prefix of the primary's segments) and replay it. With \
             $(b,--failover-after), promote automatically when the primary stays \
             unreachable; combined with $(b,--listen), the promoted server starts \
             serving (and shipping to its own followers) immediately.")
  in
  let failover_after =
    Arg.(
      value & opt Cli.nonneg_float 0.0
      & info [ "failover-after" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--follow): promote once no pull has reached the primary for \
             $(docv) seconds; 0 (default) never auto-promotes.")
  in
  let make primary poll_interval failover_after follower_id =
    Option.map
      (fun primary -> { primary; poll_interval; failover_after; follower_id })
      primary
  in
  Term.(const make $ primary $ Cli.poll_interval_arg $ failover_after $ Cli.follower_id_arg)

let cmd =
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "j"; "journal" ] ~docv:"BASE"
          ~doc:
            "Journal base path: shard $(i,i) appends its decisions to \
             $(docv).shard$(i,i).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the serving stats JSON document (uptime, start timestamp, shard \
             count, counters, per-stage latency, cache, trace retention) on stdout at \
             exit. Pipe it to $(b,disclosurectl stats) for a human-readable view.")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some Cli.addr_conv) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the wire protocol on $(b,unix:)$(i,PATH) or \
             $(b,tcp:)$(i,HOST):$(i,PORT) instead of running a workload file: \
             accept client connections until SIGINT/SIGTERM, then drain \
             gracefully (in-flight queries are answered, sockets half-closed). \
             Clients are $(b,disclosurectl query --connect) and \
             $(b,disclosurectl client).")
  in
  let doc =
    "Serve a workload on the sharded multicore layer (bounded mailboxes, label \
     cache, per-shard journal segments), or — with $(b,--listen) — serve the \
     framed wire protocol to networked clients."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.config_arg $ Cli.syntax_arg $ Cli.workload_arg
      $ Cli.limits $ journal_arg $ server_config $ stats_arg $ tracing $ listen_arg
      $ listener_config $ follow)
