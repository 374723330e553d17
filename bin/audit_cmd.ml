(* audit: the offline disclosure ledger over a decision journal, or the
   Facebook documentation audit (Table 2). *)

open Cmdliner

module Service = Disclosure.Service

(* One principal's tally over the journal records replayed for it. *)
type entry = {
  mutable answered : int;
  mutable resets : int;
  tags : (string, int) Hashtbl.t;  (** Refusal records by tag. *)
  views : (string, unit) Hashtbl.t;
      (** Views witnessed by the answered labels of the current policy epoch. *)
}

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
  let config = Cli.or_fail (Disclosure.Policyfile.parse_file config_file) in
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
  let tally : (string, entry) Hashtbl.t = Hashtbl.create 16 in
  let entry principal =
    match Hashtbl.find_opt tally principal with
    | Some e -> e
    | None ->
      let e =
        { answered = 0; resets = 0; tags = Hashtbl.create 4; views = Hashtbl.create 8 }
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
      let service = Cli.or_fail (Disclosure.Policyfile.load config) in
      let registry = Disclosure.Pipeline.registry (Service.pipeline service) in
      let on_record ~principal ~label ~decision =
        let e = entry principal in
        if decision = "answered" then begin
          e.answered <- e.answered + 1;
          if label <> "-" then
            match Disclosure.Label.decode label with
            | Error _ -> ()
            | Ok l ->
              List.iter
                (fun n -> Hashtbl.replace e.views n ())
                (List.concat_map snd (Disclosure.Explain.witnesses registry l))
        end
        else if decision = "reset" then begin
          e.resets <- e.resets + 1;
          (* A reset starts a fresh policy epoch: the monitor forgets, so
             the epoch-cumulative view set restarts too. *)
          Hashtbl.reset e.views
        end
        else if String.starts_with ~prefix:"refused:" decision then begin
          let tag = String.sub decision 8 (String.length decision - 8) in
          Hashtbl.replace e.tags tag
            (1 + Option.value ~default:0 (Hashtbl.find_opt e.tags tag))
        end
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
  let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
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
      let compacted = answered - e.answered in
      Format.printf "%-20s answered %d%s, refused %d%s, policy epochs %d@." p
        answered
        (if compacted > 0 then
           Printf.sprintf " (%d from compacted history)" compacted
         else "")
        refused
        (Cli.tag_list (sorted e.tags))
        (e.resets + 1);
      Format.printf "%-20s   alive: %s@." ""
        (match alive with [] -> "(none)" | l -> String.concat ", " l);
      Format.printf "%-20s   learned: %s@." ""
        (match sorted e.views with
        | [] -> "(nothing this epoch)"
        | vs -> String.concat ", " (List.map fst vs)))
    principals;
  0

(* Table 2: the FQL and Graph API documentation disagree about which
   permission each User field needs. *)
let run_table2 () =
  let module Audit = Disclosure.Audit in
  let module Perms = Fbschema.Fb_permissions in
  let discrepancies = Audit.compare_labelings ~left:Perms.fql ~right:Perms.graph in
  Format.printf "audited %d User views; %d inconsistencies:@."
    (List.length Perms.subjects) (List.length discrepancies);
  List.iter (fun d -> Format.printf "  %a@." Audit.pp_discrepancy d) discrepancies;
  0

let run () journal config =
  match (journal, config) with
  | Some j, Some c -> run_ledger c j
  | Some _, None -> failwith "audit JOURNAL requires --config"
  | None, _ -> run_table2 ()

let cmd =
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
  let doc =
    "Replay a decision journal into an offline per-principal disclosure \
     ledger (with $(i,JOURNAL) and $(b,--config), the configuration the \
     journal was written under), or audit the Facebook FQL vs Graph API \
     permission documentation (Table 2)."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run $ Cli.setup_logs $ journal_arg
      $ Arg.(value & opt (some file) None & Cli.config_info))
