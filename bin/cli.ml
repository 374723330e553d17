(* What the disclosurectl verbs share: log setup, input readers, query
   parsing, argument converters and terms, guarded labeling, decision and
   summary printing, and the wait for a stop signal. *)

open Cmdliner

module Pipeline = Disclosure.Pipeline
module Sview = Disclosure.Sview
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard

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

(* --- input ------------------------------------------------------------- *)

(* The contents of [path], or of stdin without one. *)
let read_input = function Some path -> read_file path | None -> In_channel.input_all stdin

(* The lines of [path], or of stdin without one, trimmed; blank lines and
   lines starting with '#' are skipped. *)
let lines path =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Some line)
    (String.split_on_char '\n' (read_input path))

(* Queries given as positional arguments, or one per line on stdin. *)
let queries = function [] -> lines None | qs -> qs

(* A workload: one (principal, query) pair per 'principal<TAB>query' line.
   Each line is split as the sequence is consumed, so a verb has acted on
   every line before a malformed one when it fails. *)
let workload path =
  List.to_seq (lines path)
  |> Seq.map (fun line ->
         match String.index_opt line '\t' with
         | None -> failwith ("malformed workload line (expected principal<TAB>query): " ^ line)
         | Some i ->
           ( String.trim (String.sub line 0 i),
             String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))

(* --- queries and views -------------------------------------------------- *)

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

let queries_arg doc = Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)

let parse_views path =
  match Cq.Parser.queries (read_file path) with
  | Error e -> failwith ("cannot parse views in " ^ path ^ ": " ^ e)
  | Ok qs -> List.map Sview.of_query qs

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

let config_info =
  Arg.info [ "c"; "config" ] ~docv:"FILE"
    ~doc:
      "Deployment configuration: 'view ...' definitions followed by \
       'principal ...' / 'partition name: V1, V2' sections."

let config_arg = Arg.(required & opt (some file) None & config_info)

let workload_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "w"; "workload" ] ~docv:"FILE"
        ~doc:"Workload file with one 'principal<TAB>query' per line; defaults to stdin.")

(* --- converters --------------------------------------------------------- *)

(* Validated at parse time so `--fuel 0` is a usage error, not a crash. *)
let int_conv ~min ~msg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg msg)
    | None -> Error (`Msg "expected an integer")
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_conv ~min:1 ~msg:"must be a positive integer"

let nonneg_int = int_conv ~min:0 ~msg:"must be >= 0"

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

let addr_conv =
  let parse s =
    match Net.Addr.of_string s with Ok a -> Ok a | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Net.Addr.pp)

(* --- resource governance ------------------------------------------------ *)

(* Labeling sits on NP-complete containment search; on adversarial input it
   can run for a very long time. --fuel and --deadline bound the per-query
   work: when a bound is hit the query is refused (fail-closed), never
   answered late or crashed on. *)
let limits =
  let fuel_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:
            "Per-query step budget for the labeling search. Queries that exhaust \
             it are refused (resource: fuel) instead of running unboundedly.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some nonneg_float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-query wall-clock deadline in seconds. Queries that exceed it \
             are refused (resource: deadline).")
  in
  Term.(const (fun fuel deadline -> Guard.limits ?fuel ?deadline ()) $ fuel_arg $ deadline_arg)

(* Label under the budget. A refusal comes back as its reason and never
   reaches a monitor, so monitor state is untouched (fail-closed). *)
let label_guarded limits pipeline u =
  Guard.run limits (fun budget -> Pipeline.label_ucq ~budget pipeline u)

(* --- the wire and replication ------------------------------------------- *)

let connect_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:)$(i,PATH) for a Unix-domain socket or \
           $(b,tcp:)$(i,HOST):$(i,PORT).")

let principal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "p"; "principal" ] ~docv:"NAME" ~doc:"Principal the queries are submitted as.")

let poll_interval_arg =
  Arg.(
    value & opt nonneg_float 0.05
    & info [ "poll-interval" ] ~docv:"SECONDS"
        ~doc:"Replication pull cadence: seconds between pull passes.")

let follower_id_arg =
  Arg.(
    value & opt string ""
    & info [ "follower-id" ] ~docv:"ID"
        ~doc:
          "The name this follower reports to the primary's per-follower cursor \
           table. The default is pid-qualified and fresh per process; pass a \
           stable $(docv) so the primary keeps tracking this follower across \
           its restarts.")

(* --- output ------------------------------------------------------------- *)

let print_decision principal query d =
  Format.printf "%-20s %-55s %a@." principal query Monitor.pp_decision d

(* " [tag xN, ...]", the way the audit ledger lists refusal tags. *)
let tag_list = function
  | [] -> ""
  | tags ->
    " ["
    ^ String.concat ", " (List.map (fun (t, n) -> Printf.sprintf "%s x%d" t n) tags)
    ^ "]"

(* Per-principal counts over the (principal, decision) pairs a verb
   printed: answered, refused, and the refusals that are not the policy's
   by tag. Monitor counters see only policy refusals; these counts include
   the resource and overload refusals decided before any monitor. *)
let tally decisions =
  let by_principal = Hashtbl.create 16 in
  List.iter
    (fun (p, d) ->
      Hashtbl.replace by_principal p
        (d :: Option.value ~default:[] (Hashtbl.find_opt by_principal p)))
    decisions;
  fun principal ->
    let ds = Option.value ~default:[] (Hashtbl.find_opt by_principal principal) in
    let answered = List.length (List.filter (( = ) Monitor.Answered) ds) in
    let tags =
      List.filter_map
        (function
          | Monitor.Answered | Monitor.Refused Guard.Policy -> None
          | Monitor.Refused reason -> Some (Guard.refusal_to_tag reason))
        ds
    in
    let count t = (t, List.length (List.filter (String.equal t) tags)) in
    (answered, List.length ds - answered, List.map count (List.sort_uniq String.compare tags))

(* The summary after a workload, one line per principal: the [count]s
   ({!tally}) and the partitions still alive. *)
let summary ~principals ~alive count =
  Format.printf "@.";
  List.iter
    (fun p ->
      let answered, refused, tags = count p in
      Format.printf "%-20s answered %d, refused %d%s (alive: %s)@." p answered refused
        (tag_list tags)
        (String.concat ", " (alive p)))
    principals

(* --- signals ------------------------------------------------------------ *)

(* Block until SIGINT or SIGTERM arrives or [stop ()] returns true; [stop]
   runs every 20 ms, so a standby's failover check lags its bound by at
   most that. *)
let until_signal stop =
  let signalled = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set signalled true) in
  Sys.set_signal Sys.sigint on_signal;
  Sys.set_signal Sys.sigterm on_signal;
  while (not (Atomic.get signalled)) && not (stop ()) do
    Unix.sleepf 0.02
  done

(* Start [fol]'s poll domain against [primary] and return the function
   that stops it. Reconnects back off to at most 0.2 s, so an outage logs
   about one warning a second; the backoff sleeps in 10 ms slices and ends
   once stopping begins, so neither a promotion nor an interrupt waits out
   a reconnect schedule. *)
let follow fol ~primary ~interval =
  let following = Atomic.make true in
  let sleep d =
    let until = Unix.gettimeofday () +. d in
    while Atomic.get following && Unix.gettimeofday () < until do
      Unix.sleepf 0.01
    done
  in
  Replicate.Follower.run fol
    ~connect:(fun () -> Net.Client.connect_retry ~max_delay:0.2 ~sleep primary)
    ~interval;
  fun () ->
    Atomic.set following false;
    Replicate.Follower.stop fol
