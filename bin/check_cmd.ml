(* check: a reference monitor over a sequence of queries (Section 6). *)

open Cmdliner

module Pipeline = Disclosure.Pipeline
module Sview = Disclosure.Sview
module Monitor = Disclosure.Monitor

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
  Disclosure.Policy.make registry (List.map parse_partition (String.split_on_char ';' spec))

let run () views_file syntax policy_spec limits queries =
  let views = Cli.load_views views_file in
  let pipeline = Pipeline.create views in
  let policy = parse_policy (Pipeline.registry pipeline) views policy_spec in
  let monitor = Monitor.create policy in
  let decisions =
    List.map
      (fun s ->
        let d =
          match Cli.label_guarded limits pipeline (Cli.parse_query syntax s) with
          | Ok label -> Monitor.submit monitor label
          | Error reason -> Monitor.Refused reason
        in
        Format.printf "%-60s %a   (alive: %s)@." s Monitor.pp_decision d
          (String.concat ", " (Monitor.alive monitor));
        ((), d))
      (Cli.queries queries)
  in
  let answered, refused, tags = Cli.tally decisions () in
  Format.printf "answered %d, refused %d%s@." answered refused (Cli.tag_list tags);
  0

let cmd =
  let policy_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "p"; "policy" ] ~docv:"SPEC"
          ~doc:
            "Policy partitions: 'name:V1,V2;other:V3'. A query is answered while \
             at least one partition covers everything answered so far.")
  in
  let doc = "Enforce a (possibly Chinese-Wall) policy over a sequence of queries." in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.optional_views_arg $ Cli.syntax_arg $ policy_arg
      $ Cli.limits
      $ Cli.queries_arg "Queries to submit in order.")
