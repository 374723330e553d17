(* replicate: mirror a primary's journal locally and replay it.

   `serve --follow` without the promotion: --once catches up completely
   and exits (scriptable backups / smoke tests); otherwise it follows
   until SIGINT/SIGTERM. *)

open Cmdliner

module Follower = Replicate.Follower

let run () connect config_file journal shards poll_interval once follower_id =
  let config = Cli.or_fail (Disclosure.Policyfile.parse_file config_file) in
  let shards =
    if shards > 0 then shards
    else
      Net.Client.with_connection connect (fun c ->
          match Obs.Json.member "shards" (Net.Client.stats c) with
          | Some (Obs.Json.Num f) -> int_of_float f
          | _ -> failwith "primary stats carry no shard count; pass --shards")
  in
  let fol =
    match Follower.create ~id:follower_id ~journal ~shards config with
    | Ok f -> f
    | Error e -> failwith ("follower: " ^ e)
  in
  if once then
    Net.Client.with_connection connect (fun c -> ignore (Follower.poll_once fol c))
  else begin
    Follower.run fol ~primary:connect ~interval:poll_interval;
    Cli.until_signal (fun () -> Follower.last_error fol <> None);
    Follower.stop fol
  end;
  Format.printf "%s@." (Follower.stats_json fol);
  match Follower.last_error fol with
  | Some e ->
    Format.eprintf "replication diverged (fail closed): %s@." e;
    1
  | None -> 0

let cmd =
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
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Catch up completely (every shard to $(i,behind) = 0), print the \
             follower stats JSON, and exit.")
  in
  let doc =
    "Mirror a running $(b,serve --listen) primary's journal locally and replay it \
     (hot-standby without auto-failover; see $(b,serve --follow) for that). The \
     configuration must match the primary's: the mirrored records replay \
     through it."
  in
  Cmd.v (Cmd.info "replicate" ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.connect_arg $ Cli.config_arg $ journal_arg
      $ shards_arg $ Cli.poll_interval_arg $ once_arg $ Cli.follower_id_arg)
