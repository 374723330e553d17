(* analyze: static policy diagnostics for a deployment (Section 2.2). *)

open Cmdliner

module Sview = Disclosure.Sview
module Policy = Disclosure.Policy
module Policyfile = Disclosure.Policyfile

let run () config_file =
  let config = Cli.or_fail (Policyfile.parse_file config_file) in
  let resolved = Cli.or_fail (Policyfile.resolve config) in
  let views = config.Policyfile.views in
  let registry = Disclosure.Pipeline.registry (Disclosure.Pipeline.create views) in
  Format.printf "%d security views over %d relations; %d principals@.@."
    (List.length views)
    (Disclosure.Registry.relation_count registry)
    (List.length config.Policyfile.principals);
  (* Views subsumed by other views (redundant grants). *)
  List.iter
    (fun v ->
      let dominators =
        List.filter
          (fun v' ->
            (not (Sview.equal v v'))
            && Disclosure.Rewrite_single.leq_atom v.Sview.atom v'.Sview.atom)
          views
      in
      if dominators <> [] then
        Format.printf "view %s is implied by %s@." v.Sview.name
          (String.concat ", " (List.map (fun v -> v.Sview.name) dominators)))
    views;
  (* Per-principal policy diagnostics. *)
  List.iter
    (fun (principal, partitions) ->
      let policy = Policy.make registry partitions in
      (match Policy.redundant_partitions policy with
      | [] -> ()
      | redundant ->
        Format.printf "principal %s: redundant partition(s): %s@." principal
          (String.concat ", " redundant));
      let parts = Policy.partitions policy in
      Array.iteri
        (fun i a ->
          Array.iteri
            (fun j b ->
              if i < j then
                match Policy.overlap registry a b with
                | [] -> ()
                | common ->
                  Format.printf "principal %s: partitions %s and %s both grant %s@."
                    principal (Policy.partition_name a) (Policy.partition_name b)
                    (String.concat ", " (List.map (fun v -> v.Sview.name) common)))
            parts)
        parts)
    resolved;
  Format.printf "@.analysis complete.@.";
  0

let cmd =
  let doc =
    "Analyze a deployment for redundant views, redundant partitions, and partition \
     overlap (Section 2.2)."
  in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ Cli.setup_logs $ Cli.config_arg)
