(* lattice: the disclosure lattice over a view file, as Graphviz. *)

open Cmdliner

module Sview = Disclosure.Sview

let run () views_file =
  let views = Cli.parse_views views_file in
  let universe = List.map (fun v -> v.Sview.atom) views in
  let lattice = Disclosure.Lattice.build ~order:Disclosure.Order.rewriting ~universe in
  let name_of a =
    match
      List.find_opt (fun v -> Disclosure.Tagged.iso_equivalent v.Sview.atom a) views
    with
    | Some v -> v.Sview.name
    | None -> Disclosure.Tagged.atom_to_string a
  in
  print_string
    (Disclosure.Lattice.to_dot
       ~pp_view:(fun ppf v -> Format.pp_print_string ppf (name_of v))
       lattice);
  0

let cmd =
  let views_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "v"; "views" ] ~docv:"FILE"
          ~doc:"Security view definitions (at most 16 views).")
  in
  let doc = "Print the disclosure lattice over the views as a Graphviz digraph." in
  Cmd.v (Cmd.info "lattice" ~doc) Term.(const run $ Cli.setup_logs $ views_arg)
