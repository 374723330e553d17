(* label: the security views each query needs (Section 4). *)

open Cmdliner

module Pipeline = Disclosure.Pipeline

let run () views_file syntax queries =
  let pipeline = Pipeline.create (Cli.load_views views_file) in
  let registry = Pipeline.registry pipeline in
  List.iter
    (fun s ->
      let label = Pipeline.label_ucq pipeline (Cli.parse_query syntax s) in
      Format.printf "%-60s %a@." s (Disclosure.Label.pp registry) label)
    (Cli.queries queries);
  0

let cmd =
  let doc = "Label queries with the security views needed to answer them." in
  Cmd.v (Cmd.info "label" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.optional_views_arg $ Cli.syntax_arg
      $ Cli.queries_arg "Queries to label.")
