(* stats: a human-readable report of a `serve --stats` document. *)

open Cmdliner

(* Pretty-print the JSON document emitted by [serve --stats] (or a bare
   [Metrics.to_json] document): uptime and throughput, then every
   registered number ([Metrics.pp_stats]), then trace retention. *)
let run () file =
  let module J = Obs.Json in
  let doc =
    match J.parse (Cli.read_input file) with
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

let cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Stats JSON document from $(b,serve --stats); reads stdin when absent.")
  in
  let doc =
    "Pretty-print a stats JSON document produced by $(b,disclosurectl serve --stats)."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ Cli.setup_logs $ file_arg)
