(* client: a workload over the wire, or a ping or stats probe. *)

open Cmdliner

module Monitor = Disclosure.Monitor

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
        let answered = ref 0 and refused = ref 0 and wire_errors = ref 0 in
        Seq.iter
          (fun (principal, query_s) ->
            let q = Cli.cq_of (Cli.parse_query syntax query_s) in
            match Net.Client.query c ~principal q with
            | Ok d ->
              (match d with
              | Monitor.Answered -> incr answered
              | Monitor.Refused _ -> incr refused);
              Cli.print_decision principal query_s d
            | Error e ->
              incr wire_errors;
              Format.printf "%-20s %-55s wire error: %a@." principal query_s
                Net.Errors.pp e)
          (Cli.workload workload);
        Format.printf "@.answered %d, refused %d, wire errors %d@." !answered !refused
          !wire_errors;
        if !wire_errors > 0 then 1 else 0
      end)

let cmd =
  let ping_arg =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:"Liveness probe: one ping round trip (prints $(i,pong)), then exit.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Fetch the server's stats JSON document and print it. Pipe it to \
             $(b,disclosurectl stats) for a human-readable view.")
  in
  let doc =
    "Replay a 'principal<TAB>query' workload against a running \
     $(b,disclosurectl serve --listen) server (or probe it with $(b,--ping) / \
     $(b,--stats))."
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.connect_arg $ Cli.syntax_arg $ Cli.workload_arg
      $ ping_arg $ stats_arg)
