(* replay: a (principal, query) workload through the sequential service,
   single-threaded. *)

open Cmdliner

module Service = Disclosure.Service

let run () config_file syntax workload limits journal =
  let config = Cli.or_fail (Disclosure.Policyfile.parse_file config_file) in
  let service = Cli.or_fail (Disclosure.Policyfile.load ~limits ?journal config) in
  let decisions =
    Cli.workload workload
    |> Seq.map (fun (principal, query_s) ->
           let u = Cli.parse_query syntax query_s in
           let d =
             match Cli.label_guarded limits (Service.pipeline service) u with
             | Ok label -> Service.submit_label service ~principal label
             | Error reason -> Service.refuse service ~principal reason
           in
           Cli.print_decision principal query_s d;
           (principal, d))
    |> List.of_seq
  in
  Cli.summary ~principals:(Service.principals service)
    ~alive:(fun principal -> Service.alive service ~principal)
    (Cli.tally decisions);
  Service.close service;
  0

let cmd =
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
  let doc = "Replay a workload of (principal, query) pairs against a deployment config." in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.config_arg $ Cli.syntax_arg $ Cli.workload_arg
      $ Cli.limits $ journal_arg)
