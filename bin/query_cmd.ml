(* query and explain: submit queries to a `serve --listen` server.

   Networked counterparts of `check`/`replay`: submit work to a running
   `serve --listen` instance over the framed wire protocol. Queries are
   parsed locally first (a syntax error never costs a round trip), travel
   as Cq concrete syntax, and are re-parsed and validated by the server —
   the decision is the server's, bit-identical to an in-process run.
   Server-side refusals (including overload shedding) print as decisions;
   typed wire errors (unknown principal, shutdown, …) print as errors and
   make the command exit non-zero. *)

open Cmdliner

module Monitor = Disclosure.Monitor

(* The body both verbs share: [submit] sends one query and returns the
   decision with a detail that [pp_detail] prints under it. *)
let verb name ~doc ~queries_doc ~submit ~pp_detail =
  let run () connect syntax principal queries =
    Net.Client.with_connection connect (fun c ->
        let wire_errors = ref 0 in
        List.iter
          (fun s ->
            let q = Cli.cq_of (Cli.parse_query syntax s) in
            match submit c ~principal q with
            | Ok (d, detail) ->
              Format.printf "%-60s %a@.%a" s Monitor.pp_decision d pp_detail detail
            | Error e ->
              incr wire_errors;
              Format.printf "%-60s wire error: %a@." s Net.Errors.pp e)
          (Cli.queries queries);
        if !wire_errors > 0 then 1 else 0)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ Cli.setup_logs $ Cli.connect_arg $ Cli.syntax_arg $ Cli.principal_arg
      $ Cli.queries_arg queries_doc)

let query =
  verb "query"
    ~doc:
      "Submit queries to a running $(b,disclosurectl serve --listen) server over \
       the wire protocol."
    ~queries_doc:"Queries to submit in order; reads one per line on stdin when absent."
    ~submit:(fun c ~principal q ->
      Result.map (fun d -> (d, ())) (Net.Client.query c ~principal q))
    ~pp_detail:(fun _ () -> ())

(* `query` with the evidence trail: the server decides exactly as it would
   for a plain query (committed, journaled, cached identically), but also
   captures a structured provenance record — witnesses, partition report,
   mask delta, deciding tier, cache level, refusal cause chain — and ships
   it back out of band. *)
let explain =
  verb "explain"
    ~doc:
      "Submit queries like $(b,query) but print each decision's structured \
       provenance: witness views per label atom, the partition report, the \
       cumulative-disclosure mask delta, budget spent, the deciding labeler \
       tier and cache level, and — on refusals — the typed cause chain. The \
       decisions are real: committed and journaled exactly as $(b,query)'s."
    ~queries_doc:"Queries to explain in order; reads one per line on stdin when absent."
    ~submit:(fun c ~principal q -> Net.Client.explain c ~principal q)
    ~pp_detail:(fun ppf -> function
      | Some e -> Format.fprintf ppf "%a@." Disclosure.Explain.pp e
      | None -> Format.fprintf ppf "  (no explanation carried)@.")
