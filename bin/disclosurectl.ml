(* disclosurectl: command-line front end to the disclosure-control library.

   Subcommands:
     label    label queries with the security views they require
     check    run a sequence of queries through a reference monitor
     lattice  print the disclosure lattice over a view file as Graphviz
     audit    replay a decision journal into an offline per-principal
              disclosure ledger, or run the Facebook Table 2 audit
     replay   replay a (principal, query) workload single-threaded
     serve    run a workload on the sharded multicore serving layer, or
              serve the framed wire protocol with --listen (journaled
              servers also ship their journal to replication followers;
              SIGHUP reloads the policy online); with --follow, run as a
              hot-standby follower with optional auto-failover
     query    submit queries to a serve --listen server over a socket
     explain  submit queries like `query` and print each decision's
              structured provenance (witnesses, partitions, mask delta,
              deciding tier, cache level, refusal cause chain)
     client   replay a workload against (or ping/fetch stats from) a server
     replicate  mirror a primary's journal locally and replay it
     analyze  static policy diagnostics for a deployment config
     stats    pretty-print a stats JSON document from `serve --stats`

   View files contain one security view definition per line, e.g.

     V1(x, y) :- Meetings(x, y)
     V2(x) :- Meetings(x, y)

   Blank lines and lines starting with '#' are ignored. Queries are read from
   positional arguments or, with no arguments, one per line on stdin. *)

open Cmdliner

module Service = Disclosure.Service

module Pipeline = Disclosure.Pipeline
module Sview = Disclosure.Sview
module Label = Disclosure.Label
module Policy = Disclosure.Policy
module Monitor = Disclosure.Monitor

(* Every command installs a Logs reporter first: the library logs real
   operational warnings — journal-closed decisions, torn-tail drops, failed
   automatic checkpoints — that would otherwise be silently discarded
   because no reporter is set. Default level is warning; --verbose raises
   it (repeatable: info, then debug), -q / --quiet silences everything.
   Hand-rolled rather than Logs_cli.level because that term claims -v,
   which several subcommands already use for --views. *)
let setup_logs =
  let init quiet verbose =
    let level =
      if quiet then None
      else
        match List.length verbose with
        | 0 -> Some Logs.Warning
        | 1 -> Some Logs.Info
        | _ -> Some Logs.Debug
    in
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Silence all log output.")
  in
  let verbose_arg =
    Arg.(
      value & flag_all
      & info [ "verbose" ]
          ~doc:"Log at info level; repeat for debug. Default logs warnings only.")
  in
  Term.(const init $ quiet_arg $ verbose_arg)

let or_fail = function Ok x -> x | Error e -> failwith e

let read_file path = In_channel.with_open_text path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      output_string oc contents;
      flush oc)

let parse_views path =
  let text = read_file path in
  match Cq.Parser.queries text with
  | Error e -> failwith ("cannot parse views in " ^ path ^ ": " ^ e)
  | Ok qs -> List.map Sview.of_query qs

let read_queries = function
  | [] ->
    let rec loop acc =
      match In_channel.input_line stdin with
      | None -> List.rev acc
      | Some line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop acc else loop (line :: acc)
    in
    loop []
  | args -> args

(* Query syntax selector: datalog-style conjunctive queries (default), FQL
   selects, or Graph API request paths. FQL and Graph API queries are parsed
   against the built-in Facebook schema. *)
let syntax_arg =
  Arg.(
    value
    & opt (enum [ ("cq", `Cq); ("fql", `Fql); ("graph", `Graph) ]) `Cq
    & info [ "s"; "syntax" ] ~docv:"SYNTAX"
        ~doc:"Query syntax: $(b,cq) (datalog-style), $(b,fql), or $(b,graph).")

(* Queries are handled as unions of conjunctive queries so FQL's OR works
   everywhere; plain conjunctive queries are one-disjunct unions. *)
let parse_query syntax s =
  match syntax with
  | `Cq -> (
    match Cq.Parser.query s with
    | Ok q -> Cq.Ucq.of_query q
    | Error e -> failwith ("cannot parse query " ^ s ^ ": " ^ e))
  | `Fql -> (
    match Fb_api.Fql.ucq Fbschema.Fb_schema.schema s with
    | Ok u -> u
    | Error e -> failwith ("cannot parse FQL query " ^ s ^ ": " ^ e))
  | `Graph -> (
    match Fb_api.Graph_api.query s with
    | Ok q -> Cq.Ucq.of_query q
    | Error e -> failwith ("cannot parse Graph API request " ^ s ^ ": " ^ e))

(* The sharded server (and therefore the wire protocol) carries single
   conjunctive queries; FQL's OR would need one submission per disjunct. *)
let cq_of u =
  match u.Cq.Ucq.disjuncts with
  | [ q ] -> q
  | _ -> failwith "only single-disjunct queries are supported here"

(* With no --views file, the built-in Facebook security views are used. *)
let optional_views_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "v"; "views" ] ~docv:"FILE"
        ~doc:
          "Security view definitions, one per line. Defaults to the built-in \
           Facebook-model views.")

let load_views = function
  | Some path -> parse_views path
  | None -> Fbschema.Fb_views.all

(* --- resource governance flags --------------------------------------- *)

(* Labeling sits on NP-complete containment search; on adversarial input it
   can run for a very long time. These flags bound the per-query work: when a
   bound is hit the query is refused (fail-closed), never answered late or
   crashed on. *)
(* Validated at parse time so `--fuel 0` is a usage error, not a crash. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg "must be a positive integer")
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some d when d >= 0.0 -> Ok d
    | Some _ -> Error (`Msg "must be non-negative")
    | None -> Error (`Msg "expected a number of seconds")
  in
  Arg.conv (parse, Format.pp_print_float)

(* Resident budget for the tiered principal store: a bare integer is a
   principal count; a b/kb/mb/gb suffix makes it an approximate resident-heap
   byte budget (resolved to a count from a measured monitor). *)
let resident_conv =
  let parse s =
    let lower = String.lowercase_ascii (String.trim s) in
    let bytes_with suffix mult =
      if
        String.length lower > String.length suffix
        && Filename.check_suffix lower suffix
      then
        int_of_string_opt
          (String.sub lower 0 (String.length lower - String.length suffix))
        |> Option.map (fun n -> (n, mult))
      else None
    in
    let ok n = n > 0 in
    match int_of_string_opt lower with
    | Some n when ok n -> Ok (Store.Principals n)
    | Some _ -> Error (`Msg "must be a positive principal count")
    | None -> (
      match
        List.find_map
          (fun (suffix, mult) -> bytes_with suffix mult)
          [ ("kb", 1024); ("mb", 1024 * 1024); ("gb", 1024 * 1024 * 1024); ("b", 1) ]
      with
      | Some (n, mult) when ok n -> Ok (Store.Bytes (n * mult))
      | Some _ -> Error (`Msg "must be a positive byte budget")
      | None ->
        Error
          (`Msg
            "expected a principal count (e.g. 4096) or a byte budget with a \
             b/kb/mb/gb suffix (e.g. 256mb)"))
  in
  let print ppf = function
    | Store.Principals n -> Format.fprintf ppf "%d" n
    | Store.Bytes n -> Format.fprintf ppf "%db" n
  in
  Arg.conv (parse, print)

let fuel_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "fuel" ] ~docv:"STEPS"
        ~doc:
          "Per-query step budget for the labeling search. Queries that exhaust \
           it are refused (resource: fuel) instead of running unboundedly.")

let deadline_arg =
  Arg.(
    value
    & opt (some nonneg_float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-query wall-clock deadline in seconds. Queries that exceed it \
           are refused (resource: deadline).")

let limits_of fuel deadline = Disclosure.Guard.limits ?fuel ?deadline ()

(* --- networked front-end flags ---------------------------------------- *)

let addr_conv =
  let parse s =
    match Net.Addr.of_string s with Ok a -> Ok a | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Net.Addr.pp)

let connect_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:)$(i,PATH) for a Unix-domain socket or \
           $(b,tcp:)$(i,HOST):$(i,PORT).")

(* --- label ---------------------------------------------------------- *)

let label_cmd =
  let queries_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc:"Queries to label.")
  in
  let run () views_file syntax queries =
    let pipeline = Pipeline.create (load_views views_file) in
    let registry = Pipeline.registry pipeline in
    List.iter
      (fun s ->
        let u = parse_query syntax s in
        let label = Pipeline.label_ucq pipeline u in
        Format.printf "%-60s %a@." s (Label.pp registry) label)
      (read_queries queries);
    0
  in
  let doc = "Label queries with the security views needed to answer them." in
  Cmd.v (Cmd.info "label" ~doc)
    Term.(const run $ setup_logs $ optional_views_arg $ syntax_arg $ queries_arg)

(* --- check ---------------------------------------------------------- *)

(* Policy syntax: "name:V1,V2;name2:V3" — partitions separated by ';',
   each 'name:' followed by comma-separated view names from the view file. *)
let parse_policy registry views spec =
  let find_view name =
    match List.find_opt (fun v -> String.equal v.Sview.name name) views with
    | Some v -> v
    | None -> failwith ("policy references unknown view " ^ name)
  in
  let parse_partition s =
    match String.index_opt s ':' with
    | None -> failwith ("malformed partition (expected name:V1,V2): " ^ s)
    | Some i ->
      let name = String.sub s 0 i in
      let view_names =
        String.sub s (i + 1) (String.length s - i - 1)
        |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      (name, List.map find_view view_names)
  in
  Policy.make registry (List.map parse_partition (String.split_on_char ';' spec))

let check_cmd =
  let policy_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "policy" ] ~docv:"SPEC"
          ~doc:
            "Policy partitions: 'name:V1,V2;other:V3'. A query is answered while \
             at least one partition covers everything answered so far.")
  in
  let queries_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc:"Queries to submit in order.")
  in
  let run () views_file syntax policy_spec fuel deadline queries =
    let views = load_views views_file in
    let pipeline = Pipeline.create views in
    let registry = Pipeline.registry pipeline in
    let policy = parse_policy registry views policy_spec in
    let monitor = Monitor.create policy in
    let limits = limits_of fuel deadline in
    List.iter
      (fun s ->
        let u = parse_query syntax s in
        (* Label under the budget; a guard refusal never reaches the monitor,
           so its alive mask and counters are untouched (fail-closed). *)
        let d =
          match
            Disclosure.Guard.run limits (fun budget ->
                Pipeline.label_ucq ~budget pipeline u)
          with
          | Ok label -> Monitor.submit monitor label
          | Error reason -> Monitor.Refused reason
        in
        Format.printf "%-60s %a   (alive: %s)@." s Monitor.pp_decision d
          (String.concat ", " (Monitor.alive monitor)))
      (read_queries queries);
    Format.printf "answered %d, refused %d@." (Monitor.answered_count monitor)
      (Monitor.refused_count monitor);
    0
  in
  let doc = "Enforce a (possibly Chinese-Wall) policy over a sequence of queries." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ setup_logs $ optional_views_arg $ syntax_arg $ policy_arg $ fuel_arg
      $ deadline_arg $ queries_arg)

(* --- lattice -------------------------------------------------------- *)

let lattice_cmd =
  let views_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "v"; "views" ] ~docv:"FILE"
          ~doc:"Security view definitions (at most 16 views).")
  in
  let run () views_file =
    let views = parse_views views_file in
    let universe = List.map (fun v -> v.Sview.atom) views in
    let lattice =
      Disclosure.Lattice.build ~order:Disclosure.Order.rewriting ~universe
    in
    let name_of a =
      match
        List.find_opt (fun v -> Disclosure.Tagged.iso_equivalent v.Sview.atom a) views
      with
      | Some v -> v.Sview.name
      | None -> Disclosure.Tagged.atom_to_string a
    in
    print_string
      (Disclosure.Lattice.to_dot
         ~pp_view:(fun ppf v -> Format.pp_print_string ppf (name_of v))
         lattice);
    0
  in
  let doc = "Print the disclosure lattice over the views as a Graphviz digraph." in
  Cmd.v (Cmd.info "lattice" ~doc) Term.(const run $ setup_logs $ views_arg)

(* --- replay --------------------------------------------------------- *)

let replay_cmd =
  let config_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:
            "Deployment configuration: 'view ...' definitions followed by \
             'principal ...' / 'partition name: V1, V2' sections.")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "w"; "workload" ] ~docv:"FILE"
          ~doc:
            "Workload file with one 'principal<TAB>query' per line; defaults to stdin.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "j"; "journal" ] ~docv:"FILE"
          ~doc:
            "Append every decision to this journal file, refusals included, as \
             checksummed v2 records: one 'J2 <crc32> <length> \
             principal<TAB>label<TAB>decision' line per decision, fields \
             escaped. The journal can later rebuild monitor state via \
             Service.recover; 'audit' reads it.")
  in
  let run () config_file syntax workload_file fuel deadline journal =
    let config = or_fail (Disclosure.Policyfile.parse_file config_file) in
    let limits = limits_of fuel deadline in
    let service = or_fail (Disclosure.Policyfile.load ~limits ?journal config) in
    let lines =
      match workload_file with
      | Some path ->
        String.split_on_char '\n' (read_file path)
      | None ->
        let rec loop acc =
          match In_channel.input_line stdin with
          | None -> List.rev acc
          | Some l -> loop (l :: acc)
        in
        loop []
    in
    List.iter
      (fun line ->
        let line = String.trim line in
        if line <> "" && line.[0] <> '#' then
          match String.index_opt line '\t' with
          | None -> failwith ("malformed workload line (expected principal<TAB>query): " ^ line)
          | Some i ->
            let principal = String.trim (String.sub line 0 i) in
            let query_s = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
            let u = parse_query syntax query_s in
            let d =
              match
                Disclosure.Guard.run limits (fun budget ->
                    Pipeline.label_ucq ~budget (Service.pipeline service) u)
              with
              | Ok label -> Service.submit_label service ~principal label
              | Error reason -> Service.refuse service ~principal reason
            in
            Format.printf "%-20s %-55s %a@." principal query_s Monitor.pp_decision d)
      lines;
    Format.printf "@.";
    List.iter
      (fun principal ->
        let answered, refused = Service.stats service ~principal in
        Format.printf "%-20s answered %d, refused %d (alive: %s)@." principal answered
          refused
          (String.concat ", " (Service.alive service ~principal)))
      (Service.principals service);
    Service.close service;
    0
  in
  let doc = "Replay a workload of (principal, query) pairs against a deployment config." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ setup_logs $ config_arg $ syntax_arg $ workload_arg $ fuel_arg
      $ deadline_arg $ journal_arg)

(* --- serve ----------------------------------------------------------- *)

(* Run an already-started server behind a listener until SIGINT/SIGTERM,
   reloading the policy file online on SIGHUP (validate, then swap with
   zero downtime), then drain gracefully: refuse new queries first
   (quiesce), drain the shards, let an attached replication follower
   finish pulling the committed tail, and only then close connections. *)
let serve_until_signal ~server ~listener ~source ~config_file =
  let stop_requested = Atomic.make false in
  let reload_requested = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal;
  (match Sys.os_type with
  | "Unix" ->
    Sys.set_signal Sys.sighup (Sys.Signal_handle (fun _ -> Atomic.set reload_requested true))
  | _ -> ());
  while not (Atomic.get stop_requested) do
    if Atomic.exchange reload_requested false then
      (match Disclosure.Policyfile.parse_file config_file with
      | Error e -> Format.eprintf "reload rejected: %s@." e
      | Ok policy -> (
        match Server.reload server policy with
        | Ok () ->
          Format.printf "policy reloaded from %s@." config_file;
          Format.print_flush ()
        | Error e -> Format.eprintf "reload failed: %s@." e));
    Unix.sleepf 0.2
  done;
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

(* The multicore serving layer: the same deployment configs and workload
   format as `replay`, but queries are dispatched to Server's shards, which
   their callers run (per-principal decision sequences are identical to
   `replay` by construction; see lib/server/server.mli). *)
let serve_cmd =
  let config_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:"Deployment configuration (same format as $(b,replay)).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "w"; "workload" ] ~docv:"FILE"
          ~doc:"Workload with one 'principal<TAB>query' per line; defaults to stdin.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "j"; "journal" ] ~docv:"BASE"
          ~doc:
            "Journal base path: shard $(i,i) appends its decisions to \
             $(docv).shard$(i,i).")
  in
  let domains_arg =
    Arg.(
      value
      & opt positive_int Server.default_config.Server.domains
      & info [ "domains" ] ~docv:"N" ~doc:
            "Shards. Principals are split across them by a stable hash; \
             callers run each shard's queue themselves, so different shards \
             decide in parallel on different callers.")
  in
  let mailbox_arg =
    Arg.(
      value
      & opt positive_int Server.default_config.Server.mailbox_capacity
      & info [ "mailbox" ] ~docv:"N"
          ~doc:
            "Per-shard mailbox bound; submissions beyond it are shed as \
             'refused (server overloaded)' instead of blocking.")
  in
  let drain_arg =
    Arg.(
      value
      & opt positive_int Server.default_config.Server.drain
      & info [ "drain" ] ~docv:"N"
          ~doc:
            "Max mailbox messages one round of a shard runs — batching amortizes \
             the claim under load without changing processing order.")
  in
  let group_commit_arg =
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
  let cache_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Per-shard label-cache entries; 0 disables the cache.")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Checkpoint each shard's journal every $(docv) decisions (seal the \
             active segment, snapshot monitor state to $(i,BASE).shard$(i,i).ckpt, \
             compact covered segments); 0 disables. Requires $(b,--journal).")
  in
  let segment_bytes_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.segment_bytes
      & info [ "segment-bytes" ] ~docv:"BYTES"
          ~doc:
            "Rotate a shard's active journal segment once it reaches $(docv) \
             bytes; 0 never rotates. Requires $(b,--journal).")
  in
  let resident_arg =
    Arg.(
      value
      & opt (some resident_conv) None
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
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the serving stats JSON document (uptime, start timestamp, shard \
             count, counters, per-stage latency, cache, trace retention) on stdout at \
             exit. Pipe it to $(b,disclosurectl stats) for a human-readable view.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON file of the sampled queries at exit (and \
             on SIGUSR1). Load it in chrome://tracing or ui.perfetto.dev; each shard \
             renders as its own track. Enables tracing.")
  in
  let trace_sample_arg =
    let nonneg_int =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 0 -> Ok n
        | Some _ -> Error (`Msg "must be >= 0")
        | None -> Error (`Msg "expected an integer")
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(
      value & opt nonneg_int 1
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Head-sample one query in $(docv) per shard (1 = every query, 0 = none). \
             Refused and slower-than $(b,--slow-ms) queries are always traced \
             regardless.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some nonneg_float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold in milliseconds: queries at or over it are always \
             traced and listed in the slow-query log printed on stderr at exit. \
             Enables tracing.")
  in
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write a Prometheus text-exposition dump of the serving metrics at exit \
             (and on SIGUSR1).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the wire protocol on $(b,unix:)$(i,PATH) or \
             $(b,tcp:)$(i,HOST):$(i,PORT) instead of running a workload file: \
             accept client connections until SIGINT/SIGTERM, then drain \
             gracefully (in-flight queries are answered, sockets half-closed). \
             Clients are $(b,disclosurectl query --connect) and \
             $(b,disclosurectl client).")
  in
  let max_connections_arg =
    Arg.(
      value
      & opt positive_int Net.Listener.default_config.Net.Listener.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Concurrent-connection cap with $(b,--listen); excess connects are \
             answered with a $(i,busy) error frame and closed.")
  in
  let conn_deadline_arg =
    Arg.(
      value
      & opt nonneg_float Net.Conn.default_config.Net.Conn.read_deadline
      & info [ "conn-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection read deadline with $(b,--listen): a connection that \
             sends no bytes for $(docv) seconds is closed with a $(i,timeout) \
             error frame. 0 disables.")
  in
  let max_frame_arg =
    Arg.(
      value
      & opt positive_int Net.Frame.default_max_payload
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Per-frame payload cap with $(b,--listen); a frame declaring more is \
             rejected before its payload is buffered.")
  in
  let follow_arg =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "follow" ] ~docv:"ADDR"
          ~doc:
            "Run as a hot-standby follower of the primary at $(docv): continuously \
             pull its journal into the local $(b,--journal) mirror (a bit-identical \
             prefix of the primary's segments) and replay it. With \
             $(b,--failover-after), promote automatically when the primary stays \
             unreachable; combined with $(b,--listen), the promoted server starts \
             serving (and shipping to its own followers) immediately.")
  in
  let poll_interval_arg =
    Arg.(
      value & opt nonneg_float 0.05
      & info [ "poll-interval" ] ~docv:"SECONDS"
          ~doc:"Replication pull cadence with $(b,--follow).")
  in
  let failover_after_arg =
    Arg.(
      value & opt nonneg_float 0.0
      & info [ "failover-after" ] ~docv:"SECONDS"
          ~doc:
            "With $(b,--follow): promote once the primary has been unreachable for \
             $(docv) seconds; 0 (default) never auto-promotes.")
  in
  let follower_id_arg =
    Arg.(
      value & opt string ""
      & info [ "follower-id" ] ~docv:"ID"
          ~doc:
            "With $(b,--follow): the name this standby reports to the primary's \
             per-follower cursor table. The default is pid-qualified and fresh per \
             process; pass a stable $(docv) so the primary keeps tracking this \
             standby across its restarts.")
  in
  let run () config_file syntax workload_file fuel deadline journal domains mailbox drain
      group_commit cache resident checkpoint_every segment_bytes stats trace_out trace_sample
      slow_ms metrics_out listen max_connections conn_deadline max_frame follow
      poll_interval failover_after follower_id =
    let config = or_fail (Disclosure.Policyfile.parse_file config_file) in
    let resolved = or_fail (Disclosure.Policyfile.resolve config) in
    let limits = limits_of fuel deadline in
    let sconfig =
      {
        Server.domains;
        mailbox_capacity = mailbox;
        cache_capacity = cache;
        checkpoint_every;
        segment_bytes;
        drain;
        group_commit;
        resident;
      }
    in
    let lconfig () =
      {
        Net.Listener.default_config with
        Net.Listener.max_connections;
        conn = { Net.Conn.read_deadline = conn_deadline; max_payload = max_frame };
      }
    in
    match follow with
    | Some primary ->
      (* Hot-standby mode: no server of our own until (auto-)promotion. *)
      let mirror =
        match journal with
        | Some j -> j
        | None -> failwith "--follow requires --journal (the local mirror base path)"
      in
      let fol =
        match
          Replicate.Follower.create ~id:follower_id ~limits ?resident ~journal:mirror
            ~shards:domains config
        with
        | Ok f -> f
        | Error e -> failwith ("follower: " ^ e)
      in
      let stop_requested = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
      Sys.set_signal Sys.sigint on_signal;
      Sys.set_signal Sys.sigterm on_signal;
      Format.printf "following %s into mirror %s (%d shard(s))%s@."
        (Net.Addr.to_string primary) mirror domains
        (if failover_after > 0.0 then
           Printf.sprintf "; auto-failover after %.1fs unreachable" failover_after
         else "");
      Format.print_flush ();
      let failover = ref false in
      let last_contact = ref (Unix.gettimeofday ()) in
      let diverged () = Replicate.Follower.last_error fol <> None in
      while (not (Atomic.get stop_requested)) && (not !failover) && not (diverged ()) do
        match Net.Client.connect primary with
        | exception (Unix.Unix_error _ | Net.Client.Protocol_error _) ->
          if
            failover_after > 0.0
            && Unix.gettimeofday () -. !last_contact >= failover_after
          then failover := true
          else Unix.sleepf (Float.min (Float.max poll_interval 0.01) 0.2)
        | client -> (
          try
            Fun.protect
              ~finally:(fun () -> Net.Client.close client)
              (fun () ->
                while (not (Atomic.get stop_requested)) && not (diverged ()) do
                  ignore (Replicate.Follower.poll_once fol client);
                  last_contact := Unix.gettimeofday ();
                  Unix.sleepf poll_interval
                done)
          with Net.Client.Protocol_error _ | Unix.Unix_error _ -> ())
      done;
      (match Replicate.Follower.last_error fol with
      | Some e -> failwith ("replication diverged (fail closed): " ^ e)
      | None -> ());
      if not !failover then begin
        if stats then Format.printf "%s@." (Replicate.Follower.stats_json fol);
        0
      end
      else begin
        Format.printf "primary unreachable for %.1fs; promoting from mirror %s@."
          failover_after mirror;
        Format.print_flush ();
        match Replicate.Follower.promote fol ~config:sconfig () with
        | Error e -> failwith ("failover failed: " ^ e)
        | Ok (server, replayed) ->
          Format.printf "promoted: replayed %d decision record(s) from the mirrored prefix@."
            replayed;
          Format.print_flush ();
          Server.start server;
          (match listen with
          | Some addr ->
            let source = Replicate.Source.create ~server ~journal:mirror () in
            let listener =
              Net.Listener.create ~config:(lconfig ())
                ~extend:(Replicate.Source.handler source) ~server addr
            in
            Format.printf "listening on %s; SIGINT/SIGTERM drains, SIGHUP reloads@."
              (Net.Addr.to_string (Net.Listener.address listener));
            Format.print_flush ();
            serve_until_signal ~server ~listener ~source:(Some source) ~config_file
          | None -> ());
          if stats then Format.printf "@.%s@." (Obs.Json.to_string (Server.stats_json server));
          Server.stop server;
          0
      end
    | None ->
    let trace =
      if trace_out <> None || slow_ms <> None then
        (* With --listen the listener gets a dedicated extra track for its
           "net" spans; shards use tracks 0..domains-1. *)
        let tracks = domains + if listen <> None then 1 else 0 in
        Some (Obs.Trace.create ~tracks ~sample:trace_sample ?slow_ms ())
      else None
    in
    let server =
      Server.create ~limits ?journal ?trace ~config:sconfig
        (Pipeline.create config.Disclosure.Policyfile.views)
    in
    let dump () =
      (match (trace, trace_out) with
      | Some tr, Some path -> write_file path (Obs.Chrome.export tr)
      | _ -> ());
      match metrics_out with
      | Some path -> write_file path (Server.prometheus server)
      | None -> ()
    in
    (match Sys.os_type with
    | "Unix" -> Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> dump ()))
    | _ -> ());
    List.iter
      (fun (principal, partitions) -> Server.register server ~principal ~partitions)
      resolved;
    Server.start server;
    (match listen with
    | Some addr ->
      (* Network mode: put the server behind a socket and run until a
         signal asks for a graceful drain. Workload input is not read.
         A journaled server also ships its journal to replication
         followers (Pull requests served straight off the segments). *)
      let ltrace = Option.map (fun tr -> (tr, domains)) trace in
      let source =
        Option.map
          (fun j -> Replicate.Source.create ?trace:ltrace ~server ~journal:j ())
          journal
      in
      let extend = Option.map Replicate.Source.handler source in
      let listener =
        Net.Listener.create ~config:(lconfig ()) ?trace:ltrace ?extend ~server addr
      in
      Format.printf
        "listening on %s (%d shard(s)%s); SIGINT/SIGTERM drains, SIGHUP reloads the policy@."
        (Net.Addr.to_string (Net.Listener.address listener))
        domains
        (if source <> None then ", replication source attached" else "");
      Format.print_flush ();
      serve_until_signal ~server ~listener ~source ~config_file
    | None ->
      let lines =
        match workload_file with
        | Some path -> String.split_on_char '\n' (read_file path)
        | None ->
          let rec loop acc =
            match In_channel.input_line stdin with
            | None -> List.rev acc
            | Some l -> loop (l :: acc)
          in
          loop []
      in
      let tickets =
        List.filter_map
          (fun line ->
            let line = String.trim line in
            if line = "" || line.[0] = '#' then None
            else
              match String.index_opt line '\t' with
              | None ->
                failwith
                  ("malformed workload line (expected principal<TAB>query): " ^ line)
              | Some i ->
                let principal = String.trim (String.sub line 0 i) in
                let query_s =
                  String.trim (String.sub line (i + 1) (String.length line - i - 1))
                in
                let q = cq_of (parse_query syntax query_s) in
                Some (principal, query_s, Server.submit server ~principal q))
          lines
      in
      List.iter
        (fun (principal, query_s, ticket) ->
          Format.printf "%-20s %-55s %a@." principal query_s Monitor.pp_decision
            (Server.await ticket))
        tickets;
      Server.drain server);
    Format.printf "@.";
    List.iter
      (fun principal ->
        let answered, refused = Server.stats server ~principal in
        Format.printf "%-20s answered %d, refused %d (alive: %s)@." principal answered
          refused
          (String.concat ", " (Server.alive server ~principal)))
      (Server.principals server);
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
  in
  let doc =
    "Serve a workload on the sharded multicore layer (bounded mailboxes, label \
     cache, per-shard journal segments), or — with $(b,--listen) — serve the \
     framed wire protocol to networked clients."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ setup_logs $ config_arg $ syntax_arg $ workload_arg $ fuel_arg
      $ deadline_arg $ journal_arg $ domains_arg $ mailbox_arg $ drain_arg
      $ group_commit_arg $ cache_arg $ resident_arg
      $ checkpoint_every_arg $ segment_bytes_arg $ stats_arg $ trace_out_arg
      $ trace_sample_arg $ slow_ms_arg $ metrics_out_arg $ listen_arg
      $ max_connections_arg $ conn_deadline_arg $ max_frame_arg $ follow_arg
      $ poll_interval_arg $ failover_after_arg $ follower_id_arg)

(* --- query / client (networked) -------------------------------------- *)

(* Networked counterparts of `check`/`replay`: submit work to a running
   `serve --listen` instance over the framed wire protocol. Queries are
   parsed locally first (a syntax error never costs a round trip), travel
   as Cq concrete syntax, and are re-parsed and validated by the server —
   the decision is the server's, bit-identical to an in-process run.
   Server-side refusals (including overload shedding) print as decisions;
   typed wire errors (unknown principal, shutdown, …) print as errors and
   make the command exit non-zero. *)

let query_cmd =
  let principal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "principal" ] ~docv:"NAME"
          ~doc:"Principal the queries are submitted as.")
  in
  let queries_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:"Queries to submit in order; reads one per line on stdin when absent.")
  in
  let run () connect syntax principal queries =
    Net.Client.with_connection connect (fun c ->
        let wire_errors = ref 0 in
        List.iter
          (fun s ->
            let q = cq_of (parse_query syntax s) in
            match Net.Client.query c ~principal q with
            | Ok d -> Format.printf "%-60s %a@." s Monitor.pp_decision d
            | Error e ->
              incr wire_errors;
              Format.printf "%-60s wire error: %a@." s Net.Errors.pp e)
          (read_queries queries);
        if !wire_errors > 0 then 1 else 0)
  in
  let doc =
    "Submit queries to a running $(b,disclosurectl serve --listen) server over \
     the wire protocol."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const run $ setup_logs $ connect_arg $ syntax_arg $ principal_arg $ queries_arg)

(* --- explain (networked) --------------------------------------------- *)

(* `query` with the evidence trail: the server decides exactly as it would
   for a plain query (committed, journaled, cached identically), but also
   captures a structured provenance record — witnesses, partition report,
   mask delta, deciding tier, cache level, refusal cause chain — and ships
   it back out of band. *)
let explain_cmd =
  let principal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "principal" ] ~docv:"NAME"
          ~doc:"Principal the queries are submitted as.")
  in
  let queries_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"QUERY"
          ~doc:"Queries to explain in order; reads one per line on stdin when absent.")
  in
  let run () connect syntax principal queries =
    Net.Client.with_connection connect (fun c ->
        let wire_errors = ref 0 in
        List.iter
          (fun s ->
            let q = cq_of (parse_query syntax s) in
            match Net.Client.explain c ~principal q with
            | Ok (d, explanation) -> (
              Format.printf "%-60s %a@." s Monitor.pp_decision d;
              match explanation with
              | Some e -> Format.printf "%a@." Disclosure.Explain.pp e
              | None -> Format.printf "  (no explanation carried)@.")
            | Error e ->
              incr wire_errors;
              Format.printf "%-60s wire error: %a@." s Net.Errors.pp e)
          (read_queries queries);
        if !wire_errors > 0 then 1 else 0)
  in
  let doc =
    "Submit queries like $(b,query) but print each decision's structured \
     provenance: witness views per label atom, the partition report, the \
     cumulative-disclosure mask delta, budget spent, the deciding labeler \
     tier and cache level, and — on refusals — the typed cause chain. The \
     decisions are real: committed and journaled exactly as $(b,query)'s."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ setup_logs $ connect_arg $ syntax_arg $ principal_arg $ queries_arg)

let client_cmd =
  let workload_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "w"; "workload" ] ~docv:"FILE"
          ~doc:"Workload with one 'principal<TAB>query' per line; defaults to stdin.")
  in
  let ping_arg =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:"Liveness probe: one ping round trip (prints $(i,pong)), then exit.")
  in
  let stats_flag_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Fetch the server's stats JSON document and print it. Pipe it to \
             $(b,disclosurectl stats) for a human-readable view.")
  in
  let run () connect syntax workload ping stats =
    Net.Client.with_connection connect (fun c ->
        if ping then (
          Net.Client.ping c;
          Format.printf "pong@.";
          0)
        else if stats then (
          Format.printf "%s@." (Obs.Json.to_string (Net.Client.stats c));
          0)
        else begin
          let lines =
            match workload with
            | Some path -> String.split_on_char '\n' (read_file path)
            | None ->
              let rec loop acc =
                match In_channel.input_line stdin with
                | None -> List.rev acc
                | Some l -> loop (l :: acc)
              in
              loop []
          in
          let answered = ref 0 and refused = ref 0 and wire_errors = ref 0 in
          List.iter
            (fun line ->
              let line = String.trim line in
              if line <> "" && line.[0] <> '#' then
                match String.index_opt line '\t' with
                | None ->
                  failwith
                    ("malformed workload line (expected principal<TAB>query): " ^ line)
                | Some i ->
                  let principal = String.trim (String.sub line 0 i) in
                  let query_s =
                    String.trim (String.sub line (i + 1) (String.length line - i - 1))
                  in
                  let q = cq_of (parse_query syntax query_s) in
                  (match Net.Client.query c ~principal q with
                  | Ok d ->
                    (match d with
                    | Monitor.Answered -> incr answered
                    | Monitor.Refused _ -> incr refused);
                    Format.printf "%-20s %-55s %a@." principal query_s
                      Monitor.pp_decision d
                  | Error e ->
                    incr wire_errors;
                    Format.printf "%-20s %-55s wire error: %a@." principal query_s
                      Net.Errors.pp e))
            lines;
          Format.printf "@.answered %d, refused %d, wire errors %d@." !answered !refused
            !wire_errors;
          if !wire_errors > 0 then 1 else 0
        end)
  in
  let doc =
    "Replay a 'principal<TAB>query' workload against a running \
     $(b,disclosurectl serve --listen) server (or probe it with $(b,--ping) / \
     $(b,--stats))."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ setup_logs $ connect_arg $ syntax_arg $ workload_arg $ ping_arg
      $ stats_flag_arg)

(* --- replicate ------------------------------------------------------- *)

(* Standalone follower: pull a running primary's journal into a local
   mirror and replay it — `serve --follow` without the promotion
   machinery. --once catches up completely and exits (scriptable
   backups / smoke tests); otherwise it follows until SIGINT/SIGTERM. *)
let replicate_cmd =
  let config_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:
            "Deployment configuration — must match the primary's (the mirrored \
             records replay through it).")
  in
  let journal_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "j"; "journal" ] ~docv:"BASE"
          ~doc:
            "Local mirror base path: shard $(i,i)'s segments land at \
             $(docv).shard$(i,i), bit-identical to the primary's.")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "The primary's shard (domain) count; 0 (default) asks the primary's \
             stats document.")
  in
  let poll_interval_arg =
    Arg.(
      value & opt nonneg_float 0.05
      & info [ "poll-interval" ] ~docv:"SECONDS" ~doc:"Pull cadence.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Catch up completely (every shard to $(i,behind) = 0), print the \
             follower stats JSON, and exit.")
  in
  let follower_id_arg =
    Arg.(
      value & opt string ""
      & info [ "follower-id" ] ~docv:"ID"
          ~doc:
            "The name this mirror reports to the primary's per-follower cursor \
             table; the default is pid-qualified and fresh per process.")
  in
  let run () connect config_file journal shards poll_interval once follower_id =
    let config = or_fail (Disclosure.Policyfile.parse_file config_file) in
    let shards =
      if shards > 0 then shards
      else
        Net.Client.with_connection connect (fun c ->
            match Obs.Json.member "shards" (Net.Client.stats c) with
            | Some (Obs.Json.Num f) -> int_of_float f
            | _ -> failwith "primary stats carry no shard count; pass --shards")
    in
    let fol =
      match Replicate.Follower.create ~id:follower_id ~journal ~shards config with
      | Ok f -> f
      | Error e -> failwith ("follower: " ^ e)
    in
    let finish () =
      Format.printf "%s@." (Replicate.Follower.stats_json fol);
      match Replicate.Follower.last_error fol with
      | Some e ->
        Format.eprintf "replication diverged (fail closed): %s@." e;
        1
      | None -> 0
    in
    if once then begin
      Net.Client.with_connection connect (fun c ->
          ignore (Replicate.Follower.poll_once fol c));
      finish ()
    end
    else begin
      let stop_requested = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
      Sys.set_signal Sys.sigint on_signal;
      Sys.set_signal Sys.sigterm on_signal;
      Replicate.Follower.run fol
        ~connect:(fun () -> Net.Client.connect_retry connect)
        ~interval:poll_interval;
      while (not (Atomic.get stop_requested)) && Replicate.Follower.last_error fol = None do
        Unix.sleepf 0.2
      done;
      Replicate.Follower.stop fol;
      finish ()
    end
  in
  let doc =
    "Mirror a running $(b,serve --listen) primary's journal locally and replay it \
     (hot-standby without auto-failover; see $(b,serve --follow) for that)."
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      const run $ setup_logs $ connect_arg $ config_arg $ journal_arg $ shards_arg
      $ poll_interval_arg $ once_arg $ follower_id_arg)

(* --- analyze -------------------------------------------------------- *)

let analyze_cmd =
  let config_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE" ~doc:"Deployment configuration to analyze.")
  in
  let run () config_file =
    let config = or_fail (Disclosure.Policyfile.parse_file config_file) in
    let resolved = or_fail (Disclosure.Policyfile.resolve config) in
    let pipeline = Pipeline.create config.Disclosure.Policyfile.views in
    let registry = Pipeline.registry pipeline in
    Format.printf "%d security views over %d relations; %d principals@.@."
      (List.length config.Disclosure.Policyfile.views)
      (Disclosure.Registry.relation_count registry)
      (List.length config.Disclosure.Policyfile.principals);
    (* Views subsumed by other views (redundant grants). *)
    let views = config.Disclosure.Policyfile.views in
    List.iter
      (fun v ->
        let dominators =
          List.filter
            (fun v' ->
              (not (Sview.equal v v'))
              && Disclosure.Rewrite_single.leq_atom v.Sview.atom v'.Sview.atom)
            views
        in
        if dominators <> [] then
          Format.printf "view %s is implied by %s@." v.Sview.name
            (String.concat ", " (List.map (fun v -> v.Sview.name) dominators)))
      views;
    (* Per-principal policy diagnostics. *)
    List.iter
      (fun (principal, partitions) ->
        let policy = Policy.make registry partitions in
        (match Policy.redundant_partitions policy with
        | [] -> ()
        | redundant ->
          Format.printf "principal %s: redundant partition(s): %s@." principal
            (String.concat ", " redundant));
        let parts = Policy.partitions policy in
        Array.iteri
          (fun i a ->
            Array.iteri
              (fun j b ->
                if i < j then
                  match Policy.overlap registry a b with
                  | [] -> ()
                  | common ->
                    Format.printf "principal %s: partitions %s and %s both grant %s@."
                      principal (Policy.partition_name a) (Policy.partition_name b)
                      (String.concat ", " (List.map (fun v -> v.Sview.name) common)))
              parts)
          parts)
      resolved;
    Format.printf "@.analysis complete.@.";
    0
  in
  let doc =
    "Analyze a deployment for redundant views, redundant partitions, and partition \
     overlap (Section 2.2)."
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ setup_logs $ config_arg)

(* --- stats ---------------------------------------------------------- *)

(* Pretty-print the JSON document emitted by [serve --stats] (or a bare
   [Metrics.to_json] document) as a human-readable report: uptime and
   throughput, then every registered number ([Metrics.pp_stats]), then
   trace retention. *)
let stats_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Stats JSON document from $(b,serve --stats); reads stdin when absent.")
  in
  let run () file =
    let module J = Obs.Json in
    let text =
      match file with
      | Some path -> read_file path
      | None -> In_channel.input_all stdin
    in
    let doc =
      match J.parse text with
      | Ok d -> d
      | Error e -> failwith ("stats: " ^ e)
    in
    (* [serve --stats] wraps the metrics document; tolerate a bare
       [Metrics.to_json] document too (no "metrics" member → the root is
       the metrics object itself). *)
    let metrics = match J.member "metrics" doc with Some m -> m | None -> doc in
    let num path obj = Option.bind (J.member path obj) J.to_float in
    let int_of path obj =
      match num path obj with Some f -> Some (int_of_float f) | None -> None
    in
    (match (num "started_at" doc, num "uptime_s" doc) with
    | Some t0, Some up ->
      Format.printf "started %.3f (epoch s), up %.3fs" t0 up;
      (match int_of "shards" doc with
      | Some n -> Format.printf ", %d shard(s)" n
      | None -> ());
      (match int_of "principals" doc with
      | Some n -> Format.printf ", %d principal(s)" n
      | None -> ());
      Format.printf "@.";
      (match (num "submitted" metrics, up > 0.) with
      | Some n, true -> Format.printf "throughput: %.1f queries/s@." (n /. up)
      | _ -> ())
    | _ -> ());
    Format.printf "@.%a@." Server.Metrics.pp_stats doc;
    (match J.member "trace" doc with
    | None -> ()
    | Some tr ->
      let g path = match int_of path tr with Some v -> v | None -> 0 in
      Format.printf "@.trace: 1-in-%d sampling, %d scope(s) retained, %d dropped@."
        (g "sample") (g "retained") (g "dropped"));
    0
  in
  let doc =
    "Pretty-print a stats JSON document produced by $(b,disclosurectl serve --stats)."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ setup_logs $ file_arg)

(* --- audit ---------------------------------------------------------- *)

(* Offline disclosure ledger: replay a decision journal (a `replay`
   journal, one shard family, or a whole server's BASE.shard* families)
   through fresh journal-less services and report, per principal, what has
   cumulatively been learned — answered/refused totals, the union of
   security views witnessed by every answered label in the current policy
   epoch, reset (policy-reload) boundaries, and which partitions remain
   alive. The journal is the authority: nothing needs the server that
   wrote it, and checkpoint-compacted history still counts via the
   restored monitor state (its labels are gone, so compacted decisions
   contribute to the totals but not to the witnessed-view union). *)
let run_ledger config_file journal =
  let config = or_fail (Disclosure.Policyfile.parse_file config_file) in
  let family_exists = Disclosure.Journal.family_exists in
  let bases =
    if family_exists journal then [ journal ]
    else begin
      let rec shards i acc =
        let b = Server.shard_journal journal i in
        if family_exists b then shards (i + 1) (b :: acc) else List.rev acc
      in
      match shards 0 [] with
      | [] ->
        failwith
          (Printf.sprintf "no journal found at %s (or %s)" journal
             (Server.shard_journal journal 0))
      | bs -> bs
    end
  in
  (* Per-principal tail tallies, accumulated by Service.recover's
     on_record hook across every family. *)
  let tally : (string, _) Hashtbl.t = Hashtbl.create 16 in
  let entry principal =
    match Hashtbl.find_opt tally principal with
    | Some e -> e
    | None ->
      let e =
        object
          val mutable answered = 0
          val mutable resets = 0
          val tags : (string, int) Hashtbl.t = Hashtbl.create 4
          val views : (string, unit) Hashtbl.t = Hashtbl.create 8
          method bump_answered = answered <- answered + 1
          method bump_reset =
            resets <- resets + 1;
            (* A reset starts a fresh policy epoch: the monitor forgets,
               so the epoch-cumulative view set restarts too. *)
            Hashtbl.reset views
          method bump_tag tag =
            Hashtbl.replace tags tag
              (1 + Option.value ~default:0 (Hashtbl.find_opt tags tag))
          method learn names = List.iter (fun n -> Hashtbl.replace views n ()) names
          method answered = answered
          method resets = resets
          method tags =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) tags []
            |> List.sort compare
          method views =
            Hashtbl.fold (fun k () acc -> k :: acc) views [] |> List.sort compare
        end
      in
      Hashtbl.add tally principal e;
      e
  in
  let applied = ref 0 and checkpoints = ref 0 and torn = ref 0 in
  (* stats/alive per family, merged after: a principal's decisions all land
     in one shard, so the family with activity for it is authoritative. *)
  let per_family = ref [] in
  List.iter
    (fun base ->
      let service = or_fail (Disclosure.Policyfile.load config) in
      let registry = Pipeline.registry (Service.pipeline service) in
      let on_record ~principal ~label ~decision =
        let e = entry principal in
        if decision = "answered" then begin
          e#bump_answered;
          if label <> "-" then
            match Label.decode label with
            | Error _ -> ()
            | Ok l ->
              e#learn
                (List.concat_map snd (Disclosure.Explain.witnesses registry l))
        end
        else if decision = "reset" then e#bump_reset
        else if String.length decision >= 8 && String.sub decision 0 8 = "refused:"
        then e#bump_tag (String.sub decision 8 (String.length decision - 8))
      in
      (match Service.recover ~on_record service ~journal:base with
      | Error err ->
        failwith (base ^ ": " ^ Service.recovery_error_to_string err)
      | Ok r ->
        applied := !applied + r.Service.applied;
        if r.Service.from_checkpoint then incr checkpoints;
        if r.Service.torn_tail then incr torn);
      let snapshot =
        List.map
          (fun p ->
            let answered, refused = Service.stats service ~principal:p in
            (p, answered, refused, Service.alive service ~principal:p))
          (Service.principals service)
      in
      per_family := snapshot :: !per_family;
      Service.close service)
    bases;
  (* Merge: sum counters; take alive from the family with the most activity
     for the principal (the others never saw its records and stayed full). *)
  let principals =
    match !per_family with [] -> [] | s :: _ -> List.map (fun (p, _, _, _) -> p) s
  in
  Format.printf "ledger for %s: %d journal famil%s, %d record(s) replayed%s%s@.@."
    journal (List.length bases)
    (if List.length bases = 1 then "y" else "ies")
    !applied
    (if !checkpoints > 0 then
       Printf.sprintf ", %d checkpoint(s) restored" !checkpoints
     else "")
    (if !torn > 0 then Printf.sprintf ", %d torn tail(s) dropped" !torn else "");
  List.iter
    (fun p ->
      let rows =
        List.map
          (fun snapshot ->
            let _, a, r, alive = List.find (fun (q, _, _, _) -> q = p) snapshot in
            (a, r, alive))
          !per_family
      in
      let answered = List.fold_left (fun acc (a, _, _) -> acc + a) 0 rows in
      let refused = List.fold_left (fun acc (_, r, _) -> acc + r) 0 rows in
      let alive =
        let best = ref (-1) and alive = ref [] in
        List.iter
          (fun (a, r, al) ->
            if a + r > !best then begin
              best := a + r;
              alive := al
            end)
          rows;
        !alive
      in
      let e = entry p in
      let compacted = answered - e#answered in
      Format.printf "%-20s answered %d%s, refused %d%s, policy epochs %d@." p
        answered
        (if compacted > 0 then
           Printf.sprintf " (%d from compacted history)" compacted
         else "")
        refused
        (match e#tags with
        | [] -> ""
        | tags ->
          " ["
          ^ String.concat ", "
              (List.map (fun (t, n) -> Printf.sprintf "%s x%d" t n) tags)
          ^ "]")
        (e#resets + 1);
      Format.printf "%-20s   alive: %s@." ""
        (match alive with [] -> "(none)" | l -> String.concat ", " l);
      Format.printf "%-20s   learned: %s@." ""
        (match e#views with
        | [] -> "(nothing this epoch)"
        | vs -> String.concat ", " vs))
    principals;
  0

let audit_cmd =
  let journal_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:
            "Decision journal to replay into a per-principal disclosure \
             ledger: a $(b,replay --journal) file, one shard family, or a \
             server journal base (its $(i,BASE).shard$(i,i) families are \
             aggregated). Requires $(b,--config). Without $(docv), runs the \
             Facebook documentation audit instead.")
  in
  let config_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "c"; "config" ] ~docv:"FILE"
          ~doc:
            "Deployment configuration the journal was written under (the \
             ledger replays through its views and policies).")
  in
  let run () journal config =
    match (journal, config) with
    | Some j, Some c -> run_ledger c j
    | Some _, None -> failwith "audit JOURNAL requires --config"
    | None, _ ->
      let module Audit = Disclosure.Audit in
      let module Perms = Fbschema.Fb_permissions in
      let discrepancies = Audit.compare_labelings ~left:Perms.fql ~right:Perms.graph in
      Format.printf "audited %d User views; %d inconsistencies:@."
        (List.length Perms.subjects) (List.length discrepancies);
      List.iter (fun d -> Format.printf "  %a@." Audit.pp_discrepancy d) discrepancies;
      0
  in
  let doc =
    "Replay a decision journal into an offline per-principal disclosure \
     ledger (with $(i,JOURNAL) and $(b,--config)), or audit the Facebook FQL \
     vs Graph API permission documentation (Table 2)."
  in
  Cmd.v (Cmd.info "audit" ~doc) Term.(const run $ setup_logs $ journal_arg $ config_arg)

let main_cmd =
  let doc = "fine-grained disclosure control for app ecosystems" in
  let info = Cmd.info "disclosurectl" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      label_cmd;
      check_cmd;
      lattice_cmd;
      audit_cmd;
      replay_cmd;
      serve_cmd;
      query_cmd;
      explain_cmd;
      client_cmd;
      replicate_cmd;
      stats_cmd;
      analyze_cmd;
    ]

(* Evaluate with [~catch:false] so user-facing errors (bad files, malformed
   workloads, unknown principals) print as one clean line instead of
   cmdliner's "internal error, uncaught exception" + backtrace. Anything not
   listed here is a genuine bug and still crashes loudly. *)
let () =
  try exit (Cmd.eval' ~catch:false main_cmd) with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
    Printf.eprintf "disclosurectl: %s\n" msg;
    exit Cmd.Exit.some_error
  | Service.Unknown_principal p ->
    Printf.eprintf "disclosurectl: unknown principal %S\n" p;
    exit Cmd.Exit.some_error
  | Net.Client.Protocol_error msg ->
    Printf.eprintf "disclosurectl: protocol error: %s\n" msg;
    exit Cmd.Exit.some_error
  | Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "disclosurectl: %s: %s%s\n" fn (Unix.error_message err)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit Cmd.Exit.some_error
