(* disclosurectl: command-line front end to the disclosure-control library.

   Subcommands, one module each (<verb>_cmd.ml, over the shared Cli):
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
              (query_cmd.ml, with query)
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

let main_cmd =
  let doc = "fine-grained disclosure control for app ecosystems" in
  let info = Cmd.info "disclosurectl" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      Label_cmd.cmd;
      Check_cmd.cmd;
      Lattice_cmd.cmd;
      Audit_cmd.cmd;
      Replay_cmd.cmd;
      Serve_cmd.cmd;
      Query_cmd.query;
      Query_cmd.explain;
      Client_cmd.cmd;
      Replicate_cmd.cmd;
      Stats_cmd.cmd;
      Analyze_cmd.cmd;
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
  | Disclosure.Service.Unknown_principal p ->
    Printf.eprintf "disclosurectl: unknown principal %S\n" p;
    exit Cmd.Exit.some_error
  | Net.Client.Protocol_error msg ->
    Printf.eprintf "disclosurectl: protocol error: %s\n" msg;
    exit Cmd.Exit.some_error
  | Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "disclosurectl: %s: %s%s\n" fn (Unix.error_message err)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit Cmd.Exit.some_error
