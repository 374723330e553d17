(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7).

     dune exec bench/main.exe               -- everything
     dune exec bench/main.exe -- table2     -- Table 2 (Facebook audit)
     dune exec bench/main.exe -- fig3       -- Figure 3 (lattice structure)
     dune exec bench/main.exe -- fig5       -- Figure 5 (labeler throughput)
     dune exec bench/main.exe -- fig6       -- Figure 6 (policy checker)
     dune exec bench/main.exe -- guard      -- guarded vs unguarded labeling
     dune exec bench/main.exe -- net        -- loopback socket vs in-process
     dune exec bench/main.exe -- replicate  -- hot-standby lag/failover/reload
     dune exec bench/main.exe -- compile    -- AOT compiled labeler vs interpreted
     dune exec bench/main.exe -- principals -- tiered store at 10k/100k/1M principals
     dune exec bench/main.exe -- micro      -- Bechamel micro-benchmarks

   Options: --n INT (queries per Figure 5 point), --checks INT (label checks
   per Figure 6 point), --labels INT (label pool size for Figure 6),
   --principals CSV (principal counts for Figure 6).

   As in the paper, timings use process (CPU) time, not wall time, and the
   Figure 5 / Figure 6 y-axes report seconds per million queries. Absolute
   numbers are not expected to match a 2013 Java/C setup; the shapes are. *)

module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Monitor = Disclosure.Monitor
module Journal = Disclosure.Journal
module Querygen = Workload.Querygen
module Policygen = Workload.Policygen

(* ------------------------------------------------------------------ *)
(* Options                                                             *)

type options = {
  mutable n : int; (* queries per Figure 5 data point *)
  mutable checks : int; (* label checks per Figure 6 data point *)
  mutable labels : int; (* label pool size for Figure 6 *)
  mutable principals : int list;
  mutable principals_set : bool;
      (* --principals was given: fig6 and the store bench share the flag but
         want different defaults (fig6 tops out at 1M monitors resident;
         the store bench's whole point is 10k/100k/1M under a budget). *)
  mutable commands : string list;
  mutable csv_dir : string option; (* also write figN.csv for plotting *)
  mutable server_json : string option; (* output path for the server benchmark *)
}

let options =
  {
    n = 20_000;
    checks = 1_000_000;
    labels = 100_000;
    principals = [ 1_000; 50_000; 1_000_000 ];
    principals_set = false;
    commands = [];
    csv_dir = None;
    server_json = None;
  }

let write_csv name header rows =
  match options.csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir name in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (String.concat "," header ^ "\n");
        List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows);
    Format.printf "(wrote %s)@." path

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--n" :: v :: rest ->
      options.n <- int_of_string v;
      go rest
    | "--checks" :: v :: rest ->
      options.checks <- int_of_string v;
      go rest
    | "--labels" :: v :: rest ->
      options.labels <- int_of_string v;
      go rest
    | "--principals" :: v :: rest ->
      options.principals <- List.map int_of_string (String.split_on_char ',' v);
      options.principals_set <- true;
      go rest
    | "--csv" :: v :: rest ->
      options.csv_dir <- Some v;
      go rest
    | "--json" :: v :: rest ->
      options.server_json <- Some v;
      go rest
    | cmd :: rest ->
      options.commands <- options.commands @ [ cmd ];
      go rest
  in
  go (List.tl (Array.to_list Sys.argv))

(* Process time, as in the paper ("our benchmarks measured process rather
   than wall time"). *)
let time_process f =
  let t0 = Sys.time () in
  let result = f () in
  let t1 = Sys.time () in
  (result, t1 -. t0)

let per_million ~count seconds = seconds *. 1_000_000.0 /. float_of_int count

(* ------------------------------------------------------------------ *)
(* Table 2: the Facebook permissions audit                             *)

let run_table2 () =
  let module Audit = Disclosure.Audit in
  let module Perms = Fbschema.Fb_permissions in
  Format.printf "@.== Table 2: FQL vs Graph API permission inconsistencies ==@.@.";
  Format.printf "views over the User table audited: %d@." (List.length Perms.subjects);
  let discrepancies = Audit.compare_labelings ~left:Perms.fql ~right:Perms.graph in
  Format.printf "inconsistencies found: %d (paper: 6)@.@." (List.length discrepancies);
  Format.printf "%-22s | %-32s | %-45s | %s@." "attribute" "FQL permissions"
    "Graph API permissions" "correct";
  Format.printf "%s@." (String.make 120 '-');
  List.iter
    (fun (d : Audit.discrepancy) ->
      let winner =
        match List.assoc_opt d.subject Perms.table2 with
        | Some Perms.Fql_was_right -> "FQL"
        | Some Perms.Graph_was_right -> "Graph API"
        | None -> "?"
      in
      Format.printf "%-22s | %-32s | %-45s | %s@." d.subject
        (Format.asprintf "%a" Audit.pp_requirement d.left)
        (Format.asprintf "%a" Audit.pp_requirement d.right)
        winner)
    discrepancies;
  let expected = [ "pic"; "timezone"; "devices"; "relationship_status"; "quotes"; "profile_url" ] in
  let found = List.map (fun (d : Audit.discrepancy) -> d.subject) discrepancies in
  Format.printf "@.matches the paper's Table 2 exactly: %b@." (found = expected)

(* ------------------------------------------------------------------ *)
(* Figure 3: lattice structure                                         *)

let run_fig3 () =
  let module Lattice = Disclosure.Lattice in
  let module Tagged = Disclosure.Tagged in
  let atom s =
    match Tagged.atom_of_query (Cq.Parser.query_exn s) with
    | Ok a -> a
    | Error e -> failwith e
  in
  Format.printf "@.== Figure 3: disclosure lattice over the Meetings projections ==@.@.";
  let v1 = atom "V1(x, y) :- Meetings(x, y)" in
  let v2 = atom "V2(x) :- Meetings(x, y)" in
  let v4 = atom "V4(y) :- Meetings(x, y)" in
  let v5 = atom "V5() :- Meetings(x, y)" in
  let l = Lattice.build ~order:Disclosure.Order.rewriting ~universe:[ v1; v2; v4; v5 ] in
  let d2 = Lattice.down l [ v2 ] and d4 = Lattice.down l [ v4 ] in
  Format.printf "elements: %d (paper's Figure 3 shows 6)@." (Lattice.size l);
  Format.printf "GLB(⇓V2, ⇓V4) = ⇓V5: %b@." (Lattice.glb l d2 d4 = Lattice.down l [ v5 ]);
  Format.printf "LUB(⇓V2, ⇓V4) properly below ⊤ = ⇓V1: %b@."
    (Lattice.lub l d2 d4 <> Lattice.top l);
  Format.printf "Hasse edges: %d (expected 6)@." (List.length (Lattice.covers l));
  Format.printf "distributive: %b, decomposable: %b@." (Lattice.is_distributive l)
    (Lattice.is_decomposable l)

(* ------------------------------------------------------------------ *)
(* Figure 5: disclosure labeler performance                            *)

let run_fig5 () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let n = options.n in
  Format.printf
    "@.== Figure 5: time to analyze a million queries (s) vs query complexity ==@.";
  Format.printf "   (%d queries measured per point, normalized to 1M; process time)@.@." n;
  Format.printf "%-22s %18s %22s %15s %12s@." "max atoms per query" "query gen only"
    "bit vectors + hashing" "hashing only" "baseline";
  let csv_rows = ref [] in
  List.iter
    (fun max_subqueries ->
      let seed = 9_000 + max_subqueries in
      (* Generation-only series: fresh generator, same seed and stream as the
         one used to build the workload below. *)
      let _, gen_time =
        time_process (fun () ->
            let g = Querygen.create ~seed () in
            for _ = 1 to n do
              ignore (Querygen.generate g ~max_subqueries)
            done)
      in
      let g = Querygen.create ~seed () in
      let queries = Array.init n (fun _ -> Querygen.generate g ~max_subqueries) in
      let _, bitvec_time =
        time_process (fun () ->
            Array.iter (fun q -> ignore (Pipeline.label pipeline q)) queries)
      in
      let _, hashed_time =
        time_process (fun () ->
            Array.iter (fun q -> ignore (Pipeline.label_hashed pipeline q)) queries)
      in
      let _, baseline_time =
        time_process (fun () ->
            Array.iter (fun q -> ignore (Pipeline.label_baseline pipeline q)) queries)
      in
      let cells =
        List.map
          (fun t -> Printf.sprintf "%.4f" (per_million ~count:n t))
          [ gen_time; bitvec_time; hashed_time; baseline_time ]
      in
      csv_rows := !csv_rows @ [ string_of_int (3 * max_subqueries) :: cells ];
      Format.printf "%-22d %18.2f %22.2f %15.2f %12.2f@." (3 * max_subqueries)
        (per_million ~count:n gen_time)
        (per_million ~count:n bitvec_time)
        (per_million ~count:n hashed_time)
        (per_million ~count:n baseline_time))
    [ 1; 2; 3; 4; 5 ];
  write_csv "fig5.csv"
    [ "max_atoms"; "generation_only_s_per_1m"; "bitvec_hashing_s_per_1m";
      "hashing_only_s_per_1m"; "baseline_s_per_1m" ]
    !csv_rows;
  Format.printf
    "@.expected shape (paper): baseline ≳ hashing only > bit vectors + hashing,@.\
     with a 3-4x gap between the bit-vector labeler and the explicit-GLB ones,@.\
     and query generation a small fraction of labeling time.@."

(* ------------------------------------------------------------------ *)
(* Figure 6: policy checker performance                                *)

let run_fig6 () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  Format.printf "@.== Figure 6: time to analyze a million labels (s) vs policy size ==@.";
  Format.printf
    "   (%d checks per point over a pool of %d labels; process time)@.@."
    options.checks options.labels;
  (* The label pool: labels of paper-style simple queries (1-3 atoms), the
     output of the Figure 5 pipeline. *)
  let g = Querygen.create ~seed:4242 () in
  let labels =
    Array.init options.labels (fun _ ->
        Pipeline.label pipeline (Querygen.generate g ~max_subqueries:1))
  in
  let header =
    "max elements/partition" :: List.map string_of_int [ 5; 10; 20; 30; 40; 50 ]
  in
  Format.printf "%-12s %-12s %s@." "partitions" "principals"
    (String.concat " " (List.map (Printf.sprintf "%10s") header));
  let rng = Workload.Rng.create 777 in
  let csv_rows = ref [] in
  List.iter
    (fun max_partitions ->
      List.iter
        (fun principals ->
          let row =
            List.map
              (fun max_elements ->
                let monitors =
                  Policygen.monitors ~seed:(principals + max_elements) ~pipeline
                    ~principals ~max_partitions ~max_elements
                in
                let n_labels = Array.length labels in
                let _, t =
                  time_process (fun () ->
                      for i = 0 to options.checks - 1 do
                        let m = monitors.(Workload.Rng.int rng principals) in
                        ignore (Monitor.submit m labels.(i mod n_labels))
                      done)
                in
                per_million ~count:options.checks t)
              [ 5; 10; 20; 30; 40; 50 ]
          in
          csv_rows :=
            !csv_rows
            @ [
                string_of_int max_partitions :: string_of_int principals
                :: List.map (Printf.sprintf "%.4f") row;
              ];
          Format.printf "%-12d %-12d %10s %s@." max_partitions principals ""
            (String.concat " " (List.map (Printf.sprintf "%10.4f") row)))
        options.principals)
    [ 1; 5 ];
  write_csv "fig6.csv"
    [ "partitions"; "principals"; "elems5"; "elems10"; "elems20"; "elems30"; "elems40";
      "elems50" ]
    !csv_rows;
  Format.printf
    "@.expected shape (paper): flat in elements-per-partition, higher for 5-way@.\
     policies than 1-way, degrading gently as principals grow (cache locality);@.\
     two orders of magnitude faster than labeling itself.@."

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

let run_ablation () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  Format.printf "@.== Ablation 1: label representation (Section 6.1) ==@.@.";
  Format.printf
    "comparing disclosure labels: packed bit vectors vs explicit view sets@.";
  let g = Querygen.create ~seed:2024 () in
  (* Only answerable (non-⊤) labels: an explicit ⊤ has no set representation,
     so including it would skew the comparison. *)
  let rec collect acc n =
    if n = 0 then acc
    else
      let q = Querygen.generate g ~max_subqueries:3 in
      match Pipeline.label_hashed pipeline q with
      | Some explicit when explicit <> [] ->
        collect ((Pipeline.label pipeline q, explicit) :: acc) (n - 1)
      | Some _ | None -> collect acc n
  in
  let pool = Array.of_list (collect [] 2_000) in
  let n_pool = Array.length pool in
  let bitvec = Array.map fst pool in
  let explicit = Array.map snd pool in
  let comparisons = 200_000 in
  let rng = Workload.Rng.create 99 in
  let idx = Array.init comparisons (fun _ -> (Workload.Rng.int rng n_pool, Workload.Rng.int rng n_pool)) in
  let _, t_bitvec =
    time_process (fun () ->
        Array.iter (fun (i, j) -> ignore (Label.leq bitvec.(i) bitvec.(j))) idx)
  in
  let _, t_explicit =
    time_process (fun () ->
        Array.iter
          (fun (i, j) ->
            ignore (Disclosure.Rewrite_single.leq explicit.(i) explicit.(j)))
          idx)
  in
  Format.printf "  bit-vector comparison:   %8.3f s per million (ℓ⁺ mask superset test)@."
    (per_million ~count:comparisons t_bitvec);
  Format.printf "  explicit-set comparison: %8.3f s per million (pairwise rewriting checks)@."
    (per_million ~count:comparisons t_explicit);
  Format.printf "  speedup: %.0fx@."
    (t_explicit /. (if t_bitvec > 0.0 then t_bitvec else 1e-9));

  Format.printf "@.== Ablation 2: generating sets vs explicit families (Section 4) ==@.@.";
  Format.printf
    "labeling all single-attribute projections of an n-attribute relation:@.";
  Format.printf
    "NaiveLabel over F = all 2^n projections vs LabelGen over F_gen (n+1 views)@.@.";
  Format.printf "%-4s %14s %16s %18s@." "n" "|F|" "naive (ms)" "generating (ms)";
  let order = Disclosure.Order.rewriting in
  let glb = Disclosure.Glb.of_sets in
  List.iter
    (fun n ->
      (* All projections of R/n as tagged atoms, indexed by attribute mask. *)
      let projection mask =
        {
          Disclosure.Tagged.pred = "R";
          args =
            List.init n (fun i ->
                let name = Printf.sprintf "x%d" i in
                if mask land (1 lsl i) <> 0 then
                  Disclosure.Tagged.Var (name, Disclosure.Tagged.Distinguished)
                else Disclosure.Tagged.Var (name, Disclosure.Tagged.Existential));
        }
      in
      let full_f = List.init (1 lsl n) (fun mask -> [ projection mask ]) in
      let fgen =
        [ projection ((1 lsl n) - 1) ]
        :: List.init n (fun i -> [ projection (((1 lsl n) - 1) land lnot (1 lsl i)) ])
      in
      (* The inputs to label: every single-attribute projection. *)
      let inputs = List.init n (fun i -> [ projection (1 lsl i) ]) in
      let reps = 20 in
      let _, t_naive =
        time_process (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun w -> ignore (Disclosure.Labeler.naive_label ~order ~f:full_f w))
                inputs
            done)
      in
      let _, t_gen =
        time_process (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun w -> ignore (Disclosure.Labeler.label_gen ~order ~glb ~fgen w))
                inputs
            done)
      in
      Format.printf "%-4d %14d %16.2f %18.2f@." n (1 lsl n) (t_naive *. 1000.0 /. float reps)
        (t_gen *. 1000.0 /. float reps))
    [ 2; 4; 6; 8; 10 ];
  Format.printf
    "@.NaiveLabel scans a family exponential in n (doubly exponential if all@.\
     subsets of views were materialized, Example 4.1); LabelGen needs only@.\
     the n+1 generating views (Example 4.10).@.";

  Format.printf "@.== Ablation 3: folding before dissection (Section 5.2) ==@.@.";
  let g = Querygen.create ~seed:777 () in
  let stress = Array.init 2_000 (fun _ -> Querygen.generate g ~max_subqueries:5) in
  let _, t_fold =
    time_process (fun () ->
        Array.iter (fun q -> ignore (Disclosure.Dissect.dissect q)) stress)
  in
  let _, t_nofold =
    time_process (fun () ->
        Array.iter (fun q -> ignore (Disclosure.Dissect.dissect_no_fold q)) stress)
  in
  let atoms_fold =
    Array.fold_left (fun acc q -> acc + List.length (Disclosure.Dissect.dissect q)) 0 stress
  in
  let atoms_nofold =
    Array.fold_left
      (fun acc q -> acc + List.length (Disclosure.Dissect.dissect_no_fold q))
      0 stress
  in
  Format.printf "  with folding:    %8.1f s per million queries, %d atoms emitted@."
    (per_million ~count:(Array.length stress) t_fold)
    atoms_fold;
  Format.printf "  without folding: %8.1f s per million queries, %d atoms emitted@."
    (per_million ~count:(Array.length stress) t_nofold)
    atoms_nofold;
  Format.printf
    "  folding costs homomorphism searches but removes redundant atoms, so@.\
     labels stay exact on redundant queries (test suite: dissect suite).@.";

  Format.printf "@.== Ablation 4: denormalized views vs join views (Section 7.2) ==@.@.";
  Format.printf
    "enforcing the friends-birthday permission: the paper's is_friend column@.\
     (single-atom views + bit vectors) vs a genuine join view (multi-atom@.\
     rewriting at query time)@.@.";
  (* The real 34-attribute User relation and the Friend relation. Both models
     expose one own-data and one friends-data permission over all non-flag
     attributes, so decisions coincide and only the mechanism differs. *)
  let pq = Cq.Parser.query_exn in
  let user_attrs = Fbschema.Fb_schema.user_attrs in
  let data_attrs = List.filter (fun a -> a <> "uid" && a <> "is_friend") user_attrs in
  let user_args ~uid ~dist ~is_friend =
    String.concat ", "
      (List.map
         (fun a ->
           if a = "uid" then uid
           else if a = "is_friend" then is_friend
           else if List.mem a dist then a
           else a ^ "_e")
         user_attrs)
  in
  let join_model =
    Disclosure.General.create
      [
        ( "OwnData",
          pq
            (Printf.sprintf "OwnData(%s) :- User(%s)" (String.concat ", " data_attrs)
               (user_args ~uid:"'me'" ~dist:data_attrs ~is_friend:"isf_e")) );
        ( "FriendsData",
          pq
            (Printf.sprintf "FriendsData(u, %s) :- Friend('me', u, fe), User(%s)"
               (String.concat ", " data_attrs)
               (user_args ~uid:"u" ~dist:data_attrs ~is_friend:"isf_e")) );
      ]
  in
  let denorm_pipeline =
    Pipeline.create
      [
        Disclosure.Sview.of_string
          (Printf.sprintf "OwnData(%s) :- User(%s)" (String.concat ", " data_attrs)
             (user_args ~uid:"'me'" ~dist:data_attrs ~is_friend:"isf_e"));
        Disclosure.Sview.of_string
          (Printf.sprintf "FriendsData(u, %s) :- User(%s)" (String.concat ", " data_attrs)
             (user_args ~uid:"u" ~dist:data_attrs ~is_friend:"true"));
      ]
  in
  let denorm_policy =
    Disclosure.Policy.stateless
      (Pipeline.registry denorm_pipeline)
      (Pipeline.views denorm_pipeline)
  in
  let rng = Workload.Rng.create 5151 in
  let n_queries = 500 in
  let make_pair () =
    let t =
      List.filteri (fun i _ -> i < 4) (Workload.Rng.nonempty_subset rng data_attrs)
    in
    let head = String.concat ", " ("u" :: t) in
    ( pq
        (Printf.sprintf "Q(%s) :- Friend('me', u, fe), User(%s)" head
           (user_args ~uid:"u" ~dist:t ~is_friend:"isf_e")),
      pq
        (Printf.sprintf "Q(%s) :- User(%s)" head
           (user_args ~uid:"u" ~dist:t ~is_friend:"true")) )
  in
  let pairs = Array.init n_queries (fun _ -> make_pair ()) in
  let _, t_join =
    time_process (fun () ->
        Array.iter
          (fun (jq, _) -> ignore (Disclosure.General.answerable join_model jq))
          pairs)
  in
  let _, t_denorm =
    time_process (fun () ->
        Array.iter
          (fun (_, dq) ->
            ignore
              (Disclosure.Policy.allowed denorm_policy (Pipeline.label denorm_pipeline dq)))
          pairs)
  in
  Format.printf "  join views (multi-atom rewriting): %8.1f s per million checks@."
    (per_million ~count:n_queries t_join);
  Format.printf "  denormalized single-atom views:    %8.1f s per million checks@."
    (per_million ~count:n_queries t_denorm);
  Format.printf
    "  slowdown of the join model: %.0fx — the decisions agree (multiatom test@.\
     suite), so the paper's denormalization trades nothing but generality.@."
    (t_join /. (if t_denorm > 0.0 then t_denorm else 1e-9))

(* ------------------------------------------------------------------ *)
(* Guarded labeling overhead                                           *)

(* The guard threads a budget through the homomorphism search: one branch
   plus a counter decrement per candidate step, a gettimeofday every 128
   steps when a deadline is set, and a fresh budget record per query. The
   acceptance bar is that the guarded fast path (budget generous enough to
   never trip) stays within ~10% of unguarded throughput. *)
let run_guard () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let n = options.n in
  Format.printf "@.== Guarded vs unguarded labeling (resource governance overhead) ==@.";
  Format.printf "   (%d queries measured per point, normalized to 1M; process time)@.@." n;
  Format.printf "%-22s %14s %14s %14s %10s@." "max atoms per query" "unguarded"
    "fuel only" "fuel+deadline" "overhead";
  let limits_fuel = Disclosure.Guard.limits ~fuel:50_000_000 () in
  let limits_full = Disclosure.Guard.limits ~fuel:50_000_000 ~deadline:60.0 () in
  let csv_rows = ref [] in
  List.iter
    (fun max_subqueries ->
      let seed = 9_000 + max_subqueries in
      let g = Querygen.create ~seed () in
      let queries = Array.init n (fun _ -> Querygen.generate g ~max_subqueries) in
      let run limits =
        Array.iter
          (fun q ->
            match
              Disclosure.Guard.run limits (fun budget ->
                  Pipeline.label ~budget pipeline q)
            with
            | Ok _ -> ()
            | Error reason ->
              failwith
                (Format.asprintf "guard bench: unexpected refusal: %a"
                   Disclosure.Guard.pp_refusal reason))
          queries
      in
      let _, unguarded =
        time_process (fun () ->
            Array.iter (fun q -> ignore (Pipeline.label pipeline q)) queries)
      in
      let _, fuel_only = time_process (fun () -> run limits_fuel) in
      let _, full = time_process (fun () -> run limits_full) in
      let overhead =
        if unguarded > 0.0 then (full -. unguarded) /. unguarded *. 100.0 else 0.0
      in
      csv_rows :=
        !csv_rows
        @ [
            [
              string_of_int (3 * max_subqueries);
              Printf.sprintf "%.4f" (per_million ~count:n unguarded);
              Printf.sprintf "%.4f" (per_million ~count:n fuel_only);
              Printf.sprintf "%.4f" (per_million ~count:n full);
              Printf.sprintf "%.1f" overhead;
            ];
          ];
      Format.printf "%-22d %14.2f %14.2f %14.2f %9.1f%%@." (3 * max_subqueries)
        (per_million ~count:n unguarded)
        (per_million ~count:n fuel_only)
        (per_million ~count:n full) overhead)
    [ 1; 2; 3; 4; 5 ];
  write_csv "guard.csv"
    [ "max_atoms"; "unguarded_s_per_1m"; "fuel_only_s_per_1m"; "fuel_deadline_s_per_1m";
      "overhead_pct" ]
    !csv_rows;
  Format.printf "@.acceptance: fuel+deadline within ~10%% of unguarded.@."

(* ------------------------------------------------------------------ *)
(* Sharded serving layer: parallel throughput and label-cache speedup  *)

(* These are wall-clock measurements (the point is parallelism, so process
   time would be misleading); everything else in this harness follows the
   paper and uses process time. *)
let time_wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, t1 -. t0)

let run_server () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let views = Array.of_list Fbschema.Fb_views.all in
  let n = min options.n 20_000 in
  let n_principals = 32 in
  let principals = Array.init n_principals (Printf.sprintf "app-%d") in
  let rng = Workload.Rng.create 2024 in
  let policies =
    Array.map
      (fun _ ->
        Policygen.partitions rng ~views ~max_partitions:2 ~max_elements:10)
      principals
  in
  let g = Querygen.create ~seed:31337 () in
  let queries = Array.init n (fun _ -> Querygen.generate g ~max_subqueries:3) in
  let make_server ~domains ~cache_capacity =
    let server =
      Server.create
        ~config:
          {
            Server.domains;
            mailbox_capacity = n;
            cache_capacity;
            checkpoint_every = 0;
            segment_bytes = 0;
            drain = Server.default_config.Server.drain;
            group_commit = false;
            resident = None;
          }
        pipeline
    in
    Array.iteri
      (fun i principal ->
        Server.register server ~principal ~partitions:policies.(i))
      principals;
    server
  in
  (* One pass: submit everything, then drain; wall time covers both. *)
  let pass server =
    time_wall (fun () ->
        Array.iteri
          (fun i q ->
            ignore
              (Server.submit server
                 ~principal:principals.(i mod n_principals)
                 q))
          queries;
        Server.drain server)
    |> snd
  in
  (* Parallelism comes from callers: one submitter domain per shard, each
     submitting the queries of the principals its shard owns and then
     awaiting them, which runs that shard's rounds. *)
  let parallel_pass server ~domains =
    let owned =
      Array.init domains (fun s ->
          List.filter
            (fun i -> Server.shard_index ~shards:domains principals.(i mod n_principals) = s)
            (List.init n Fun.id))
    in
    time_wall (fun () ->
        Array.map
          (fun mine ->
            Domain.spawn (fun () ->
                List.map
                  (fun i ->
                    Server.submit server ~principal:principals.(i mod n_principals) queries.(i))
                  mine
                |> List.iter (fun t -> ignore (Server.await t))))
          owned
        |> Array.iter Domain.join;
        Server.drain server)
    |> snd
  in
  let cores = Domain.recommended_domain_count () in
  Format.printf "@.== Serving layer: parallel throughput (wall time) ==@.";
  Format.printf
    "   (%d queries over %d principals, cache disabled, one submitter domain per shard; \
     %d core(s) available)@.@."
    n n_principals cores;
  Format.printf "%-10s %12s %14s %10s@." "domains" "wall (s)" "queries/s" "speedup";
  let parallel_rows =
    List.map
      (fun domains ->
        let server = make_server ~domains ~cache_capacity:0 in
        Server.start server;
        let wall = parallel_pass server ~domains in
        Server.stop server;
        (domains, wall, float_of_int n /. wall))
      [ 1; 2; 4 ]
  in
  let base_wall =
    match parallel_rows with (_, w, _) :: _ -> w | [] -> assert false
  in
  List.iter
    (fun (domains, wall, qps) ->
      (* More domains than cores is an oversubscription measurement, not a
         scaling point — stamp it so regression comparisons skip it. *)
      Format.printf "%-10d %12.3f %14.0f %9.2fx%s@." domains wall qps (base_wall /. wall)
        (if domains > cores then "  (contended)" else ""))
    parallel_rows;
  (* Warm-cache speedup: identical workload twice through one shard — the
     second pass is all cache hits, skipping the labeling pipeline. *)
  let server = make_server ~domains:1 ~cache_capacity:65_536 in
  Server.start server;
  let cold = pass server in
  let metrics = Server.metrics server in
  let cache_count c = Server.Metrics.count metrics c in
  let cold_misses = cache_count Server.Metrics.Cache_miss in
  let warm = pass server in
  let hits = cache_count Server.Metrics.Cache_hit
  and misses = cache_count Server.Metrics.Cache_miss
  and evictions = cache_count Server.Metrics.Cache_eviction in
  let warm_misses = misses - cold_misses in
  let entries = Server.Metrics.gauge_value metrics ~shard:0 Server.Metrics.Cache_entries in
  let metrics_json = Obs.Json.to_string (Server.Metrics.to_json metrics) in
  Server.stop server;
  let speedup = cold /. warm in
  Format.printf "@.== Serving layer: label-cache warm speedup (1 domain) ==@.@.";
  Format.printf "cold pass: %.3fs (%.0f q/s)   warm pass: %.3fs (%.0f q/s)   speedup: %.1fx@."
    cold
    (float_of_int n /. cold)
    warm
    (float_of_int n /. warm)
    speedup;
  Format.printf "cache: %d entries, %d hits, %d misses, %d evictions@." entries hits misses
    evictions;
  (* The speedup gets no printed bar: it is a wall-time ratio that moves
     with the cold pass's labeling cost and read 4.1-5.05x run to run on
     unchanged code. The guard is on an exact count instead: the cold pass
     cached every label, so the warm pass must never miss. *)
  if warm_misses > 0 then begin
    Format.printf "FAIL: warm-cache guard: %d label-cache misses on the warm pass@."
      warm_misses;
    exit 1
  end;
  Format.printf "acceptance: warm pass served entirely from the label cache — PASS@.";
  (* Group commit: the same single-shard workload journaled to disk, one
     fsync per decision vs one covering fsync per round. The mailbox is
     filled before the server starts so every round is a full batch — the
     steady-state shape of a loaded server. *)
  let drain = Server.default_config.Server.drain in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let journaled_pass ~group_commit =
    let base = Filename.temp_file "disclosure-bench" ".journal" in
    Sys.remove base;
    let server =
      Server.create ~journal:base
        ~config:
          {
            Server.domains = 1;
            mailbox_capacity = n;
            cache_capacity = 0;
            checkpoint_every = 0;
            segment_bytes = 0;
            drain;
            group_commit;
            resident = None;
          }
        pipeline
    in
    Array.iteri
      (fun i principal ->
        Server.register server ~principal ~partitions:policies.(i))
      principals;
    let tickets =
      Array.mapi
        (fun i q ->
          Server.submit server ~principal:principals.(i mod n_principals) q)
        queries
    in
    let (), wall =
      time_wall (fun () ->
          Server.start server;
          Server.drain server)
    in
    let decisions = Array.map Server.await tickets in
    let flushes = (Server.flush_counts server).(0) in
    Server.stop server;
    let seg = Server.shard_journal base 0 in
    let journal = read_file seg in
    Journal.remove_family seg;
    (wall, decisions, flushes, journal)
  in
  let wall_off, dec_off, flushes_off, journal_off = journaled_pass ~group_commit:false in
  let wall_on, dec_on, flushes_on, journal_on = journaled_pass ~group_commit:true in
  let gc_identical = dec_off = dec_on && String.equal journal_off journal_on in
  let gc_speedup = wall_off /. wall_on in
  let per_decision count = float_of_int count /. float_of_int n in
  Format.printf "@.== Serving layer: group commit (journaled, 1 domain, drain %d) ==@.@." drain;
  Format.printf "%-16s %12s %14s %10s %16s@." "mode" "wall (s)" "queries/s" "fsyncs"
    "fsyncs/decision";
  Format.printf "%-16s %12.3f %14.0f %10d %16.4f@." "per-decision" wall_off
    (float_of_int n /. wall_off)
    flushes_off (per_decision flushes_off);
  Format.printf "%-16s %12.3f %14.0f %10d %16.4f@." "group-commit" wall_on
    (float_of_int n /. wall_on)
    flushes_on (per_decision flushes_on);
  Format.printf
    "@.group commit: %.1fx wall speedup, decisions and journal bytes identical: %b@."
    gc_speedup gc_identical;
  (* Hard guard, not just a report: group commit must actually batch — at
     most ~one fsync per drained batch (slack for the final short batch
     and the drain barrier), and never more than without it. *)
  let max_flushes = (2 * ((n + drain - 1) / drain)) + 2 in
  if flushes_on > max_flushes || flushes_on > flushes_off || not gc_identical then begin
    Format.printf
      "FAIL: group commit guard: %d fsyncs for %d decisions (max %d, per-decision mode %d), identical %b@."
      flushes_on n max_flushes flushes_off gc_identical;
    exit 1
  end;
  Format.printf "acceptance: <=%d fsyncs for %d decisions under group commit — PASS@."
    max_flushes n;
  let json_path = Option.value options.server_json ~default:"BENCH_server.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let parallel =
        parallel_rows
        |> List.map (fun (domains, wall, qps) ->
               Printf.sprintf
                 "{\"domains\": %d, \"wall_s\": %.4f, \"qps\": %.0f, \"speedup\": %.3f, \"contended\": %b}"
                 domains wall qps (base_wall /. wall) (domains > cores))
        |> String.concat ", "
      in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"server\",\n\
        \  \"queries\": %d,\n\
        \  \"principals\": %d,\n\
        \  \"cores_available\": %d,\n\
        \  \"parallel\": [%s],\n\
        \  \"group_commit\": {\"drain\": %d, \"wall_off_s\": %.4f, \"wall_on_s\": %.4f, \"speedup\": %.2f, \"fsyncs_off\": %d, \"fsyncs_on\": %d, \"fsyncs_per_decision_on\": %.4f, \"identical\": %b},\n\
        \  \"cache\": {\"cold_s\": %.4f, \"warm_s\": %.4f, \"speedup\": %.2f, \"hits\": %d, \"misses\": %d, \"evictions\": %d},\n\
        \  \"metrics\": %s\n\
         }\n"
        n n_principals cores parallel drain wall_off wall_on gc_speedup flushes_off
        flushes_on (per_decision flushes_on) gc_identical cold warm speedup
        hits misses evictions metrics_json);
  Format.printf "(wrote %s)@." json_path

(* ------------------------------------------------------------------ *)
(* Observability: tracing overhead (disabled / sampled / full)         *)

(* Same 1-domain cache-off workload as the server benchmark's first row
   (so the numbers are comparable to BENCH_server.json), run three ways:
   recorder absent (the pre-observability serving path — the baseline),
   1-in-16 head sampling, and every-query tracing. Wall time, best of
   three passes per mode; identical query sequence and seeds across modes
   so monitor-state evolution is the same everywhere. *)
let run_obs () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let views = Array.of_list Fbschema.Fb_views.all in
  let n = min options.n 20_000 in
  let n_principals = 32 in
  let principals = Array.init n_principals (Printf.sprintf "app-%d") in
  (* One all-views partition per principal, and only queries that partition
     covers: every query answers and the alive masks never narrow, so the
     stream exercises the head-sampled fast path the sampling knob exists
     for. A refusal is always tail-retained regardless of sampling — a
     refusal-heavy stream measures that guarantee (and retention cost),
     not sampling; the always-trace-refusals property is pinned by
     test_obs, and the retention path shares the ring/alloc work measured
     by the [full] row here. *)
  let grant_all = [ ("all", Array.to_list views) ] in
  let policies = Array.map (fun _ -> grant_all) principals in
  let policy = Disclosure.Policy.make (Pipeline.registry pipeline) grant_all in
  let g = Querygen.create ~seed:31337 () in
  let queries =
    Array.init n (fun _ ->
        let rec covered tries =
          let q = Querygen.generate g ~max_subqueries:3 in
          if tries > 200 then q
          else
            match Pipeline.label pipeline q with
            | label when Disclosure.Policy.allowed policy label -> q
            | _ -> covered (tries + 1)
            | exception _ -> covered (tries + 1)
        in
        covered 0)
  in
  let labels = Array.map (fun q -> Pipeline.label pipeline q) queries in
  let passes = 15 in
  (* The modes are interleaved round-robin (one pass of each per round,
     best pass wins) rather than run back to back: on a busy box the
     environmental noise is time-correlated, and sequential mode runs
     would compare a quiet window against a loud one. *)
  let start_mode trace =
    let server =
      Server.create ?trace
        ~config:
          {
            Server.domains = 1;
            mailbox_capacity = n;
            cache_capacity = 0;
            checkpoint_every = 0;
            segment_bytes = 0;
            drain = Server.default_config.Server.drain;
            group_commit = false;
            resident = None;
          }
        pipeline
    in
    Array.iteri
      (fun i principal -> Server.register server ~principal ~partitions:policies.(i))
      principals;
    Server.start server;
    server
  in
  let one_pass ~explain server =
    time_wall (fun () ->
        Array.iteri
          (fun i q ->
            let principal = principals.(i mod n_principals) in
            if explain then ignore (Server.submit_explained server ~principal q)
            else ignore (Server.submit server ~principal q))
          queries;
        Server.drain server)
    |> snd
  in
  Format.printf "@.== Observability: tracing overhead (wall time, 1 domain) ==@.";
  Format.printf
    "   (%d answerable queries over %d principals, cache off, best of %d interleaved \
     passes; %d core(s) available)@.@."
    n n_principals passes
    (Domain.recommended_domain_count ());
  let recorders =
    List.map
      (fun (mode, sample) -> (mode, Obs.Trace.create ~tracks:1 ~sample ()))
      [ ("sampled16", 16); ("full", 1) ]
  in
  let lineup =
    ("disabled", start_mode None, false)
    :: List.map (fun (mode, tr) -> (mode, start_mode (Some tr), false)) recorders
    @ [ ("explain", start_mode None, true) ]
  in
  let best = Hashtbl.create 4 in
  let rounds = Hashtbl.create 4 in
  List.iter
    (fun (mode, _, _) ->
      Hashtbl.replace best mode infinity;
      Hashtbl.replace rounds mode [])
    lineup;
  (* Rotate the running order each round: the first mode after a heavily
     allocating one inherits its GC debt, and a fixed order would charge
     that debt to the same mode every time. *)
  let n_modes = List.length lineup in
  for round = 0 to passes - 1 do
    for slot = 0 to n_modes - 1 do
      let mode, server, explain = List.nth lineup ((round + slot) mod n_modes) in
      Gc.major ();
      let wall = one_pass ~explain server in
      if wall < Hashtbl.find best mode then Hashtbl.replace best mode wall;
      Hashtbl.replace rounds mode (wall :: Hashtbl.find rounds mode)
    done
  done;
  List.iter (fun (_, server, _) -> Server.stop server) lineup;
  let base = Hashtbl.find best "disabled" in
  let modes =
    List.map
      (fun (mode, tr) ->
        (mode, Hashtbl.find best mode, Obs.Trace.retained tr, Obs.Trace.dropped tr))
      recorders
  in
  let explain_wall = Hashtbl.find best "explain" in
  (* Overhead is the median of per-round ratios against the disabled pass of
     the SAME round, not a ratio of cross-round minima: noise on a shared box
     is time-correlated, so adjacent passes see the same weather and their
     ratio cancels it, while minima from different rounds compare a quiet
     window against a loud one. *)
  let overhead_of mode =
    let ratios =
      List.map2
        (fun w d -> w /. d)
        (Hashtbl.find rounds mode)
        (Hashtbl.find rounds "disabled")
      |> List.sort compare
    in
    let m = List.nth ratios (List.length ratios / 2) in
    (m -. 1.0) *. 100.0
  in
  Format.printf "%-12s %12s %14s %10s %10s %10s@." "mode" "wall (s)" "queries/s"
    "overhead" "retained" "dropped";
  Format.printf "%-12s %12.3f %14.0f %9.1f%% %10s %10s@." "disabled" base
    (float_of_int n /. base)
    0.0 "-" "-";
  List.iter
    (fun (mode, wall, retained, dropped) ->
      Format.printf "%-12s %12.3f %14.0f %9.1f%% %10d %10d@." mode wall
        (float_of_int n /. wall)
        (overhead_of mode) retained dropped)
    modes;
  Format.printf "%-12s %12.3f %14.0f %9.1f%% %10s %10s@." "explain" explain_wall
    (float_of_int n /. explain_wall)
    (overhead_of "explain") "-" "-";
  let sampled_overhead = overhead_of "sampled16" in
  Format.printf
    "@.acceptance: 1-in-16 sampling within 10%% of tracing disabled: %b@."
    (sampled_overhead <= 10.0);
  (* Provenance disabled-mode guard, allocation-based: wall time on a busy
     box cannot resolve 1%, but allocation counts are deterministic. Run
     the plain (capture never armed) decision path through an in-process
     service, then a capture-armed pass over the same all-answered stream,
     then the plain path again: if the machinery leaves any per-decision
     residue when disarmed — a stale captured record, an attrs thunk, a
     lazily retained explanation — the third pass allocates more than the
     first. All three passes run on the bench domain, so the minor-word
     counters see every allocation. *)
  let service =
    let s = Disclosure.Service.create pipeline in
    Array.iteri
      (fun i principal ->
        Disclosure.Service.register s ~principal ~partitions:policies.(i))
      principals;
    s
  in
  let words_per_decision ~explain =
    Gc.full_major ();
    let before = Gc.minor_words () in
    Array.iteri
      (fun i label ->
        let principal = principals.(i mod n_principals) in
        if explain then Disclosure.Service.capture_begin service;
        ignore (Disclosure.Service.submit_label service ~principal label);
        if explain then ignore (Disclosure.Service.capture_take service))
      labels;
    let after = Gc.minor_words () in
    (after -. before) /. float_of_int n
  in
  let words_off_before = words_per_decision ~explain:false in
  let words_on = words_per_decision ~explain:true in
  let words_off_after = words_per_decision ~explain:false in
  Disclosure.Service.close service;
  (* 1% relative plus a two-word absolute floor so a zero-allocation
     baseline cannot fail on rounding. *)
  let off_overhead_pct =
    if words_off_after <= words_off_before then 0.0
    else (words_off_after -. words_off_before) /. Float.max words_off_before 1.0 *. 100.0
  in
  let off_ok =
    words_off_after <= (words_off_before *. 1.01) +. 2.0
  in
  Format.printf
    "@.provenance: %.1f minor words/decision off, %.1f on (x%.1f); disabled-mode \
     residue %.2f%%@."
    words_off_before words_on
    (words_on /. Float.max words_off_before 1.0)
    off_overhead_pct;
  Format.printf "acceptance: provenance disabled-mode overhead <= 1%%: %b@." off_ok;
  let json_path = Option.value options.server_json ~default:"BENCH_obs.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let mode_json =
        Printf.sprintf
          "{\"mode\": \"disabled\", \"wall_s\": %.4f, \"qps\": %.0f, \"overhead_pct\": \
           0.0}"
          base
          (float_of_int n /. base)
        :: List.map
             (fun (mode, wall, retained, dropped) ->
               Printf.sprintf
                 "{\"mode\": \"%s\", \"wall_s\": %.4f, \"qps\": %.0f, \"overhead_pct\": \
                  %.1f, \"scopes_retained\": %d, \"scopes_dropped\": %d}"
                 mode wall
                 (float_of_int n /. wall)
                 (overhead_of mode) retained dropped)
             modes
        @ [
            Printf.sprintf
              "{\"mode\": \"explain\", \"wall_s\": %.4f, \"qps\": %.0f, \"overhead_pct\": %.1f}"
              explain_wall
              (float_of_int n /. explain_wall)
              (overhead_of "explain");
          ]
        |> String.concat ",\n    "
      in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"obs\",\n\
        \  \"queries\": %d,\n\
        \  \"principals\": %d,\n\
        \  \"cores_available\": %d,\n\
        \  \"passes\": %d,\n\
        \  \"modes\": [\n    %s\n  ],\n\
        \  \"provenance\": {\"words_per_decision_off\": %.1f, \"words_per_decision_on\": %.1f, \"disabled_mode_overhead_pct\": %.2f, \"disabled_mode_ok\": %b}\n\
         }\n"
        n n_principals
        (Domain.recommended_domain_count ())
        passes mode_json words_off_before words_on off_overhead_pct off_ok);
  Format.printf "(wrote %s)@." json_path;
  if not off_ok then begin
    Format.printf
      "FAIL: provenance guard: disabled-mode path allocates %.1f words/decision \
       after a capture-armed pass vs %.1f before@."
      words_off_after words_off_before;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Journal recovery: full replay vs checkpoint + tail                  *)

(* Recovery wall time as a function of history length, with and without
   checkpoints (DESIGN.md §8). Replay is cheap per record (decode + mask
   ops; no labeling), so recovery cost is linear in the journal — a
   checkpoint replaces the covered prefix with an O(principals) snapshot
   restore, making recovery cost proportional to the tail alone. *)
let run_recover () =
  let module Service = Disclosure.Service in
  let pipeline = Fbschema.Fb_views.pipeline () in
  let views = Array.of_list Fbschema.Fb_views.all in
  let n_principals = 8 in
  let principals = Array.init n_principals (Printf.sprintf "app-%d") in
  let rng = Workload.Rng.create 7 in
  let policies =
    Array.map
      (fun _ -> Policygen.partitions rng ~views ~max_partitions:2 ~max_elements:10)
      principals
  in
  let make_service base =
    let service = Service.create ?journal:base pipeline in
    Array.iteri
      (fun i principal ->
        Service.register service ~principal ~partitions:policies.(i))
      principals;
    service
  in
  let recover_time base =
    (* Best of five: recovery is milliseconds, so take the min to cut noise. *)
    let best = ref infinity and applied = ref 0 in
    for _ = 1 to 5 do
      let fresh = make_service None in
      let _, t =
        time_wall (fun () ->
            match Service.recover fresh ~journal:base with
            | Ok r -> applied := r.Service.applied
            | Error e -> failwith (Service.recovery_error_to_string e))
      in
      if t < !best then best := t
    done;
    (!best, !applied)
  in
  Format.printf "@.== Journal recovery: full replay vs checkpoint + tail ==@.@.";
  Format.printf "%-10s %14s %14s %16s %14s %10s@." "history" "journal (B)" "full replay"
    "ckpt+tail" "tail records" "speedup";
  let rows =
    List.map
      (fun history ->
        let g = Querygen.create ~seed:(31337 + history) () in
        let queries =
          Array.init history (fun _ -> Querygen.generate g ~max_subqueries:1)
        in
        let submit_all service ~checkpoint_every =
          Array.iteri
            (fun i q ->
              ignore
                (Service.submit service ~principal:principals.(i mod n_principals) q);
              if checkpoint_every > 0 && (i + 1) mod checkpoint_every = 0 then
                match Service.checkpoint service with
                | Ok () -> ()
                | Error msg -> failwith msg)
            queries
        in
        (* Full-replay run: one journal, no checkpoints. *)
        let base_full = Filename.temp_file "bench_recover_full" ".journal" in
        let live = make_service (Some base_full) in
        submit_all live ~checkpoint_every:0;
        Service.close live;
        let live_snap = Service.snapshot live in
        let journal_bytes = (Unix.stat base_full).Unix.st_size in
        let full_s, applied_full = recover_time base_full in
        (* Checkpointed run: same decisions, checkpoint every history/10. *)
        let cadence = max 1 (history / 10) in
        let base_ckpt = Filename.temp_file "bench_recover_ckpt" ".journal" in
        let live_c = make_service (Some base_ckpt) in
        submit_all live_c ~checkpoint_every:cadence;
        Service.close live_c;
        let ckpt_s, applied_ckpt = recover_time base_ckpt in
        (* The recovered states must match the live run bit for bit. *)
        let check = make_service None in
        (match Service.recover check ~journal:base_ckpt with
        | Ok _ ->
          if Service.snapshot check <> live_snap then
            failwith "checkpoint+tail recovery diverged from live state"
        | Error e -> failwith (Service.recovery_error_to_string e));
        Journal.remove_family base_full;
        Journal.remove_family base_ckpt;
        Format.printf "%-10d %14d %13.4fs %15.4fs %14d %9.1fx@." history journal_bytes
          full_s ckpt_s applied_ckpt (full_s /. ckpt_s);
        (history, journal_bytes, full_s, ckpt_s, cadence, applied_full, applied_ckpt))
      [ 500; 2_000; 8_000 ]
  in
  Format.printf
    "@.acceptance: checkpoint+tail recovery cost tracks the tail, not the history@.";
  let json_path = Option.value options.server_json ~default:"BENCH_recover.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row_json =
        rows
        |> List.map
             (fun (history, bytes, full_s, ckpt_s, cadence, applied_full, applied_ckpt) ->
               Printf.sprintf
                 "{\"history\": %d, \"journal_bytes\": %d, \"full_replay_s\": %.6f, \"ckpt_tail_s\": %.6f, \"checkpoint_every\": %d, \"applied_full\": %d, \"applied_tail\": %d, \"speedup\": %.2f}"
                 history bytes full_s ckpt_s cadence applied_full applied_ckpt
                 (full_s /. ckpt_s))
        |> String.concat ",\n    "
      in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"recover\",\n\
        \  \"principals\": %d,\n\
        \  \"rows\": [\n    %s\n  ]\n\
         }\n"
        n_principals row_json);
  Format.printf "(wrote %s)@." json_path

(* ------------------------------------------------------------------ *)
(* Networked front-end: loopback round trips vs the in-process path    *)

(* The codec row: what one wire request costs the two ends outside the
   socket — the client's print and encode, the frame on each side, the
   server's payload decode and parse, and the decision's response round
   trip — as process-independent per-request microseconds and minor-heap
   words, over an ecosystem-style pool (the simple queries and app names
   of the serving benchmark's ecosystem workload). Exits 1 if any decoded
   request, parsed query or decoded response differs from its original. *)
type codec_step = { step : string; us : float; words : float }

let codec_row () =
  let rng = Workload.Rng.create 3001 in
  let g = Workload.Querygen.create ~seed:(Workload.Rng.int rng 1_000_000_000) () in
  let pool = Array.init 64 (fun _ -> Workload.Querygen.generate_simple g) in
  let principals = Array.init 64 (fun i -> Workload.Principalgen.name (i * 1543)) in
  let n = Array.length pool in
  let reps = 320 in
  let fail what =
    Format.printf "codec row: %s differs from what was encoded@." what;
    exit 1
  in
  let measure step f =
    let out = Array.map f (Array.init n Fun.id) in
    Gc.compact ();
    let w0 = Gc.minor_words () in
    let t0 = Disclosure.Mclock.now_ns () in
    for _ = 1 to reps do
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (f i))
      done
    done;
    let t1 = Disclosure.Mclock.now_ns () in
    let words = Gc.minor_words () -. w0 in
    let per = float_of_int (reps * n) in
    (out, { step; us = Int64.to_float (Int64.sub t1 t0) /. 1e3 /. per; words = words /. per })
  in
  let texts, print = measure "print" (fun i -> Cq.Query.to_string pool.(i)) in
  let requests =
    Array.init n (fun i -> Net.Codec.Query { principal = principals.(i); query = texts.(i); trace = None })
  in
  let payloads, encode = measure "encode" (fun i -> Net.Codec.encode_request requests.(i)) in
  let frames, frame = measure "frame" (fun i -> Net.Frame.encode payloads.(i)) in
  let decoded, decode =
    measure "decode" (fun i ->
        match Net.Frame.decode frames.(i) with
        | Net.Frame.Frame { payload; _ } -> Net.Codec.decode_request payload
        | _ -> fail "a request frame")
  in
  Array.iteri (fun i d -> if d <> Ok requests.(i) then fail "a decoded request") decoded;
  let parsed, parse = measure "parse" (fun i -> Cq.Parser.query_exn texts.(i)) in
  Array.iteri (fun i q -> if q <> pool.(i) then fail "a parsed query") parsed;
  let decision i =
    if i mod 10 = 9 then Monitor.Refused Disclosure.Guard.Policy else Monitor.Answered
  in
  let responses, response =
    measure "response" (fun i ->
        match
          Net.Frame.decode (Net.Frame.encode (Net.Codec.encode_response (Net.Codec.Decision (decision i))))
        with
        | Net.Frame.Frame { payload; _ } -> Net.Codec.decode_response payload
        | _ -> fail "a response frame")
  in
  Array.iteri
    (fun i r -> if r <> Ok (Net.Codec.Decision (decision i)) then fail "a decoded response")
    responses;
  let steps = [ print; encode; frame; decode; parse; response ] in
  let mean_bytes =
    float_of_int (Array.fold_left (fun a f -> a + String.length f) 0 frames) /. float_of_int n
  in
  (steps, mean_bytes)

(* The same workload twice: direct [Server.submit_sync] calls (the
   in-process baseline) and blocking [Net.Client] round trips over a
   loopback Unix-domain socket — so the delta is exactly the wire
   (framing, CRC, JSON codec, two socket hops, a connection domain).
   Per-query latency on the monotonic clock, p50/p99 + sustained qps for
   both paths, plus a 4-connection concurrent row. Identical seeds and a
   single submission stream, so answered/refused totals must match the
   in-process run exactly. *)
let run_net () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let views = Array.of_list Fbschema.Fb_views.all in
  let n = min options.n 5_000 in
  let n_principals = 32 in
  let principals = Array.init n_principals (Printf.sprintf "app-%d") in
  let rng = Workload.Rng.create 2024 in
  let policies =
    Array.map
      (fun _ ->
        Policygen.partitions rng ~views ~max_partitions:2 ~max_elements:10)
      principals
  in
  let g = Querygen.create ~seed:31337 () in
  let queries = Array.init n (fun _ -> Querygen.generate g ~max_subqueries:3) in
  let make_server () =
    let server =
      Server.create
        ~config:
          {
            Server.domains = 1;
            mailbox_capacity = n;
            cache_capacity = 0;
            checkpoint_every = 0;
            segment_bytes = 0;
            drain = Server.default_config.Server.drain;
            group_commit = false;
            resident = None;
          }
        pipeline
    in
    Array.iteri
      (fun i principal ->
        Server.register server ~principal ~partitions:policies.(i))
      principals;
    Server.start server;
    server
  in
  let percentile sorted p =
    let len = Array.length sorted in
    sorted.(max 0 (min (len - 1) (p * len / 100)))
  in
  let summarize lat_us wall =
    Array.sort compare lat_us;
    (percentile lat_us 50, percentile lat_us 99, float_of_int (Array.length lat_us) /. wall)
  in
  let count_decisions submit =
    let answered = ref 0 and refused = ref 0 in
    let lat_us = Array.make n 0.0 in
    let (), wall =
      time_wall (fun () ->
          Array.iteri
            (fun i q ->
              let t0 = Disclosure.Mclock.now_ns () in
              (match submit ~principal:principals.(i mod n_principals) q with
              | Monitor.Answered -> incr answered
              | Monitor.Refused _ -> incr refused);
              lat_us.(i) <-
                Int64.to_float (Int64.sub (Disclosure.Mclock.now_ns ()) t0) /. 1e3)
            queries)
    in
    (lat_us, wall, !answered, !refused)
  in
  Format.printf "@.== Networked front-end: loopback vs in-process (wall time) ==@.";
  Format.printf "   (%d queries over %d principals, 1 shard, cache disabled)@.@." n
    n_principals;
  (* In-process baseline. *)
  let server = make_server () in
  let lat, wall, base_answered, base_refused =
    count_decisions (fun ~principal q -> Server.submit_sync server ~principal q)
  in
  Server.stop server;
  let in_p50, in_p99, in_qps = summarize lat wall in
  (* Loopback, one blocking connection. *)
  let server = make_server () in
  let sock = Filename.temp_file "disclosure-bench" ".sock" in
  let addr = Net.Addr.Unix_socket sock in
  let listener = Net.Listener.create ~server addr in
  let submit_wire client ~principal q =
    match Net.Client.query client ~principal q with
    | Ok d -> d
    | Error e -> failwith ("bench: unexpected wire error: " ^ Net.Errors.to_string e)
  in
  let client = Net.Client.connect addr in
  let lat, wall, net_answered, net_refused = count_decisions (submit_wire client) in
  let net_p50, net_p99, net_qps = summarize lat wall in
  Net.Client.close client;
  (* Concurrent connections: 4 clients splitting the same stream. *)
  let n_conns = 4 in
  let (), conc_wall =
    time_wall (fun () ->
        Array.init n_conns (fun c ->
            Domain.spawn (fun () ->
                let client = Net.Client.connect addr in
                Fun.protect
                  ~finally:(fun () -> Net.Client.close client)
                  (fun () ->
                    Array.iteri
                      (fun i q ->
                        if i mod n_conns = c then
                          ignore
                            (submit_wire client
                               ~principal:principals.(i mod n_principals) q))
                      queries)))
        |> Array.iter Domain.join)
  in
  let conc_qps = float_of_int n /. conc_wall in
  Net.Listener.stop listener;
  Server.drain server;
  Server.stop server;
  (* Pipelined: the same stream down one connection with a bounded window
     in flight — amortizes the round trip the serial row pays per query.
     Fresh server so monitor-state evolution (and hence every decision)
     is comparable to the serial runs. *)
  let pipeline_depth = 32 in
  let server = make_server () in
  let listener = Net.Listener.create ~server addr in
  let pairs =
    Array.to_list
      (Array.mapi (fun i q -> (principals.(i mod n_principals), q)) queries)
  in
  let pipe_results, pipe_wall =
    Net.Client.with_connection addr (fun client ->
        time_wall (fun () -> Net.Client.query_batch ~depth:pipeline_depth client pairs))
  in
  let pipe_answered = ref 0 and pipe_refused = ref 0 in
  List.iter
    (function
      | Ok Monitor.Answered -> incr pipe_answered
      | Ok (Monitor.Refused _) -> incr pipe_refused
      | Error e -> failwith ("bench: unexpected wire error: " ^ Net.Errors.to_string e))
    pipe_results;
  let pipe_qps = float_of_int n /. pipe_wall in
  (* The server's syscalls per pipelined request: a read carries as many
     requests as the client's writes coalesced. *)
  let per_request c =
    float_of_int (Server.Metrics.count (Server.metrics server) c) /. float_of_int n
  in
  let pipe_reads = per_request Server.Metrics.Net_reads in
  let pipe_writes = per_request Server.Metrics.Net_writes in
  Net.Listener.stop listener;
  Server.drain server;
  Server.stop server;
  let identical = base_answered = net_answered && base_refused = net_refused in
  let pipe_identical = base_answered = !pipe_answered && base_refused = !pipe_refused in
  let pipe_speedup = pipe_qps /. net_qps in
  Format.printf "%-22s %10s %10s %12s@." "path" "p50 (us)" "p99 (us)" "queries/s";
  Format.printf "%-22s %10.1f %10.1f %12.0f@." "in-process" in_p50 in_p99 in_qps;
  Format.printf "%-22s %10.1f %10.1f %12.0f@." "loopback (1 conn)" net_p50 net_p99
    net_qps;
  Format.printf "%-22s %10s %10s %12.0f@."
    (Printf.sprintf "loopback (%d conns)" n_conns)
    "-" "-" conc_qps;
  Format.printf "%-22s %10s %10s %12.0f@."
    (Printf.sprintf "pipelined (depth %d)" pipeline_depth)
    "-" "-" pipe_qps;
  Format.printf "@.answered %d, refused %d over the wire; identical to in-process: %b@."
    net_answered net_refused identical;
  Format.printf
    "pipelined: %.1fx the serial connection, decisions identical to in-process: %b@."
    pipe_speedup pipe_identical;
  Format.printf "pipelined: the server made %.3f reads and %.3f writes per request@." pipe_reads
    pipe_writes;
  let codec_steps, request_frame_bytes = codec_row () in
  let codec_total f = List.fold_left (fun a st -> a +. f st) 0.0 codec_steps in
  Format.printf "@.codec per request (%.0f-byte request frames):@." request_frame_bytes;
  Format.printf "%-10s %10s %12s@." "step" "us" "minor words";
  List.iter (fun st -> Format.printf "%-10s %10.2f %12.0f@." st.step st.us st.words) codec_steps;
  Format.printf "%-10s %10.2f %12.0f@." "total"
    (codec_total (fun st -> st.us))
    (codec_total (fun st -> st.words));
  let codec_json =
    String.concat ", "
      (List.map
         (fun st -> Printf.sprintf "\"%s\": {\"us\": %.2f, \"words\": %.0f}" st.step st.us st.words)
         codec_steps)
  in
  let json_path = Option.value options.server_json ~default:"BENCH_net.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"net\",\n\
        \  \"queries\": %d,\n\
        \  \"principals\": %d,\n\
        \  \"in_process\": {\"p50_us\": %.1f, \"p99_us\": %.1f, \"qps\": %.0f},\n\
        \  \"loopback\": {\"p50_us\": %.1f, \"p99_us\": %.1f, \"qps\": %.0f},\n\
        \  \"concurrent\": {\"connections\": %d, \"qps\": %.0f},\n\
        \  \"pipelined\": {\"depth\": %d, \"qps\": %.0f, \"speedup_vs_serial\": %.2f, \"server_reads_per_request\": %.3f, \"server_writes_per_request\": %.3f, \"decisions_identical_to_in_process\": %b},\n\
        \  \"answered\": %d,\n\
        \  \"refused\": %d,\n\
        \  \"decisions_identical_to_in_process\": %b,\n\
        \  \"codec\": {\"request_frame_bytes\": %.0f, %s, \"total\": {\"us\": %.2f, \"words\": %.0f}}\n\
         }\n"
        n n_principals in_p50 in_p99 in_qps net_p50 net_p99 net_qps n_conns conc_qps
        pipeline_depth pipe_qps pipe_speedup pipe_reads pipe_writes pipe_identical net_answered
        net_refused
        identical request_frame_bytes codec_json
        (codec_total (fun st -> st.us))
        (codec_total (fun st -> st.words)));
  Format.printf "(wrote %s)@." json_path

(* ------------------------------------------------------------------ *)
(* Hot-standby replication: steady-state lag, failover time, reload    *)
(* blackout                                                            *)

let run_replicate () =
  let shards = 2 in
  let n = min options.n 20_000 in
  let v1 = Disclosure.Sview.of_string "V1(x, y) :- Meetings(x, y)" in
  let v2 = Disclosure.Sview.of_string "V2(x) :- Meetings(x, y)" in
  let v3 = Disclosure.Sview.of_string "V3(x, y, z) :- Contacts(x, y, z)" in
  let n_principals = 16 in
  let policy ~open_calendar =
    {
      Disclosure.Policyfile.views = [ v1; v2; v3 ];
      principals =
        List.init n_principals (fun i ->
            ( Printf.sprintf "app-%d" i,
              [ ("meetings", [ "V1"; "V2" ]); ("contacts", [ "V3" ]) ] ))
        @ [
            ( "calendar-app",
              [ ("default", if open_calendar then [ "V1"; "V2" ] else [ "V2" ]) ] );
          ];
    }
  in
  let resolve p =
    match Disclosure.Policyfile.resolve p with
    | Ok r -> r
    | Error e -> failwith ("bench replicate: " ^ e)
  in
  let config =
    {
      Server.domains = shards;
      mailbox_capacity = 4096;
      cache_capacity = 0;
      checkpoint_every = 0;
      segment_bytes = 0;
      drain = Server.default_config.Server.drain;
      group_commit = false;
      resident = None;
    }
  in
  let queries =
    [|
      Cq.Parser.query_exn "Q(x, y, z) :- Contacts(x, y, z)";
      Cq.Parser.query_exn "Q(x, y) :- Meetings(x, y)";
      Cq.Parser.query_exn "Q(x) :- Meetings(x, y)";
    |]
  in
  let jbase = Filename.temp_file "disclosure-bench-rep-primary" ".journal" in
  let mbase = Filename.temp_file "disclosure-bench-rep-mirror" ".journal" in
  Sys.remove jbase;
  Sys.remove mbase;
  let sock = Filename.temp_file "disclosure-bench-rep" ".sock" in
  let cleanup () =
    List.iter
      (fun base ->
        for shard = 0 to shards - 1 do
          Journal.remove_family (Server.shard_journal base shard)
        done)
      [ jbase; mbase ];
    try Sys.remove sock with Sys_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Format.printf "@.== Hot-standby replication (wall time) ==@.";
      Format.printf "   (%d queries over %d principals, %d shards, follower polling)@.@." n
        (n_principals + 1) shards;
      (* Primary with a replication source attached; follower polls it
         continuously over the loopback socket while the primary serves. *)
      let server = Server.create ~journal:jbase ~config (Pipeline.create [ v1; v2; v3 ]) in
      List.iter
        (fun (principal, partitions) -> Server.register server ~principal ~partitions)
        (resolve (policy ~open_calendar:false));
      Server.start server;
      let source = Replicate.Source.create ~server ~journal:jbase () in
      let addr = Net.Addr.Unix_socket sock in
      let listener = Net.Listener.create ~extend:(Replicate.Source.handler source) ~server addr in
      let fol =
        match
          Replicate.Follower.create ~journal:mbase ~shards (policy ~open_calendar:false)
        with
        | Ok f -> f
        | Error e -> failwith ("bench replicate: follower: " ^ e)
      in
      Replicate.Follower.run fol ~primary:addr ~interval:0.001;
      (* Steady state: sample the replication-lag watermark while serving. *)
      let samples = ref [] in
      let (), serve_wall =
        time_wall (fun () ->
            for i = 0 to n - 1 do
              ignore
                (Server.submit_sync server
                   ~principal:(Printf.sprintf "app-%d" (i mod n_principals))
                   queries.(i mod 3));
              if i mod 256 = 0 then
                samples := float_of_int (Replicate.Follower.lag fol) :: !samples
            done)
      in
      Server.drain server;
      let caught, catchup_wall =
        time_wall (fun () -> Replicate.Source.await_caught_up source ~timeout_s:30.0)
      in
      let sampled = Array.of_list !samples in
      let mean_lag =
        if Array.length sampled = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 sampled /. float_of_int (Array.length sampled)
      in
      let max_lag = Array.fold_left Float.max 0.0 sampled in
      let shipped = Replicate.Follower.applied fol in
      Format.printf "steady state: %d records replayed, mean lag %.0f bytes, max lag %.0f bytes@."
        shipped mean_lag max_lag;
      Format.printf "serve wall %.3f s (%.0f q/s), final catch-up %.1f ms, caught up: %b@."
        serve_wall
        (float_of_int n /. serve_wall)
        (catchup_wall *. 1e3) caught;
      (* Failover: the primary dies (listener and server stop), the
         follower promotes over its mirror. *)
      Net.Listener.stop listener;
      Server.stop server;
      let (promoted, replayed), failover_wall =
        time_wall (fun () ->
            match Replicate.Follower.promote fol ~config () with
            | Ok x -> x
            | Error e -> failwith ("bench replicate: promote: " ^ e))
      in
      Format.printf "failover: promoted in %.1f ms (%d records recovered from the mirror)@."
        (failover_wall *. 1e3) replayed;
      (* Reload blackout on the promoted primary: a client streams queries
         while the policy is swapped; every query must be answered over the
         SAME connection (zero drops), and the largest inter-response gap
         bounds the observable blackout. *)
      Server.start promoted;
      let listener = Net.Listener.create ~server:promoted addr in
      let stop_stream = Atomic.make false in
      let wire_errors = Atomic.make 0 in
      let streamer =
        Domain.spawn (fun () ->
            let client = Net.Client.connect addr in
            let gaps = ref [] in
            let refused = ref 0 and answered = ref 0 in
            let last = ref (Unix.gettimeofday ()) in
            while not (Atomic.get stop_stream) do
              (match Net.Client.query client ~principal:"calendar-app" queries.(1) with
              | Ok Monitor.Answered -> incr answered
              | Ok (Monitor.Refused _) -> incr refused
              | Error _ -> Atomic.incr wire_errors);
              let now = Unix.gettimeofday () in
              gaps := (now -. !last) :: !gaps;
              last := now
            done;
            Net.Client.close client;
            (!gaps, !refused, !answered))
      in
      let reloads = [ true; false; true ] in
      List.iter
        (fun open_calendar ->
          Unix.sleepf 0.05;
          match Server.reload promoted (policy ~open_calendar) with
          | Ok () -> ()
          | Error e -> failwith ("bench replicate: reload: " ^ e))
        reloads;
      Unix.sleepf 0.05;
      Atomic.set stop_stream true;
      let gaps, refused, answered = Domain.join streamer in
      Net.Listener.stop listener;
      Server.stop promoted;
      let max_gap = List.fold_left Float.max 0.0 gaps in
      let dropped = Atomic.get wire_errors in
      Format.printf
        "reload: %d reloads under load — %d answered, %d refused, %d dropped, max gap %.2f ms@."
        (List.length reloads) answered refused dropped (max_gap *. 1e3);
      let json_path = Option.value options.server_json ~default:"BENCH_replicate.json" in
      let oc = open_out json_path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Printf.fprintf oc
            "{\n\
            \  \"benchmark\": \"replicate\",\n\
            \  \"queries\": %d,\n\
            \  \"shards\": %d,\n\
            \  \"steady_state\": {\"records_replayed\": %d, \"mean_lag_bytes\": %.0f, \
             \"max_lag_bytes\": %.0f, \"serve_qps\": %.0f, \"final_catchup_ms\": %.1f, \
             \"caught_up\": %b},\n\
            \  \"failover\": {\"promote_ms\": %.1f, \"records_recovered\": %d},\n\
            \  \"reload\": {\"reloads\": %d, \"queries_in_flight\": %d, \
             \"dropped_connections\": %d, \"max_gap_ms\": %.2f, \"decision_flip_observed\": \
             %b}\n\
             }\n"
            n shards shipped mean_lag max_lag
            (float_of_int n /. serve_wall)
            (catchup_wall *. 1e3) caught (failover_wall *. 1e3) replayed
            (List.length reloads) (answered + refused) dropped (max_gap *. 1e3)
            (answered > 0 && refused > 0));
      Format.printf "(wrote %s)@." json_path)

(* ------------------------------------------------------------------ *)
(* Compiled labeler: AOT artifact vs interpreted pipeline (DESIGN.md §12) *)

(* Runs [f] and returns its result with its process µs and minor words per
   item, over [n] items. *)
let measure_stage n f =
  let w0 = Gc.minor_words () in
  let result, seconds = time_process f in
  let words = Gc.minor_words () -. w0 in
  (result, (seconds *. 1e6 /. float_of_int n, words /. float_of_int n))

let run_compile () =
  let module Artifact = Compile.Artifact in
  let pipeline = Fbschema.Fb_views.pipeline () in
  let n = options.n in
  Format.printf "@.== Compiled labeler: AOT artifact vs interpreted pipeline ==@.";
  Format.printf
    "   (%d distinct queries per point, labeled cold then rerun against the warm@.\
    \    artifact — a shard's label-cache miss before and after the atom memo@.\
    \    holds the query's atoms; process time, s per 1M queries)@.@." n;
  Format.printf "%-22s %13s %13s %7s %13s %7s %6s@." "max atoms per query" "interpreted"
    "cold" "(x)" "warm" "(x)" "ident";
  let _, compile_time = time_process (fun () -> ignore (Artifact.compile pipeline)) in
  let rows = ref [] in
  let total_fallbacks = ref 0 in
  let last_stats = ref None in
  List.iter
    (fun max_subqueries ->
      let seed = 12_000 + max_subqueries in
      let g = Querygen.create ~seed () in
      let queries = Array.init n (fun _ -> Querygen.generate g ~max_subqueries) in
      let interpreted, interp_time =
        time_process (fun () -> Array.map (fun q -> Pipeline.label pipeline q) queries)
      in
      (* Fresh artifact per point so one point's atom memos cannot subsidise
         the next — every point measures a cold artifact on distinct queries,
         exactly what a shard sees on a label-cache miss. *)
      let artifact = Artifact.compile pipeline in
      let compiled, compiled_time =
        time_process (fun () -> Array.map (fun q -> Artifact.label artifact q) queries)
      in
      (* Warm pass: the steady-state shard cache miss. The fold and the
         split run again; every atom now hits the atom memo, so only the
         matcher scans are skipped. *)
      let warm, warm_time =
        time_process (fun () -> Array.map (fun q -> Artifact.label artifact q) queries)
      in
      let identical =
        Array.for_all2 (fun a b -> Label.equal a b) interpreted compiled
        && Array.for_all2 (fun a b -> Label.equal a b) interpreted warm
      in
      (* Where a cold label goes: the same queries through each stage of
         [Artifact.label] on their own — the fold, the coded split into
         patterns, and per atom the memo probe or matcher scan against
         another fresh artifact — in process µs and minor words per query. *)
      let folded, fold = measure_stage n (fun () -> Array.map (fun q -> Cq.Minimize.fold q) queries) in
      let split, split_cost =
        measure_stage n (fun () ->
            Array.map (Disclosure.Dissect.map_split (fun a p -> (a, p))) folded)
      in
      let stage_artifact = Artifact.compile pipeline in
      let (), atom_label =
        measure_stage n (fun () ->
            Array.iter
              (List.iter (fun (a, p) -> ignore (Artifact.label_split stage_artifact a p)))
              split)
      in
      let stats = Artifact.stats artifact in
      total_fallbacks := !total_fallbacks + stats.Artifact.fallbacks;
      last_stats := Some stats;
      let cold_speedup = interp_time /. compiled_time in
      let warm_speedup = interp_time /. warm_time in
      Format.printf "%-22d %13.2f %13.2f %6.1fx %13.2f %6.1fx %6b@." (3 * max_subqueries)
        (per_million ~count:n interp_time)
        (per_million ~count:n compiled_time)
        cold_speedup
        (per_million ~count:n warm_time)
        warm_speedup identical;
      rows :=
        !rows
        @ [
            ( ( 3 * max_subqueries,
                per_million ~count:n interp_time,
                per_million ~count:n compiled_time,
                cold_speedup,
                per_million ~count:n warm_time,
                warm_speedup,
                identical ),
              (fold, split_cost, atom_label) );
          ])
    [ 1; 2; 3; 4; 5 ];
  Format.printf "@.%-22s %17s %17s %17s@." "cold stages per query" "fold us/words"
    "split us/words" "probe/scan us/words";
  List.iter
    (fun ((atoms, _, _, _, _, _, _), (fold, split, atom_label)) ->
      let cell (us, words) = Printf.sprintf "%8.2f/%8.0f" us words in
      Format.printf "%-22d %17s %17s %17s@." atoms (cell fold) (cell split) (cell atom_label))
    !rows;
  let min_cold =
    List.fold_left (fun acc ((_, _, _, s, _, _, _), _) -> Float.min acc s) infinity !rows
  in
  let min_warm =
    List.fold_left (fun acc ((_, _, _, _, _, s, _), _) -> Float.min acc s) infinity !rows
  in
  let all_identical = List.for_all (fun ((_, _, _, _, _, _, i), _) -> i) !rows in
  Format.printf
    "@.compile: AOT compile %.2f ms, cold speedup >=%.1fx, warm speedup >=%.1fx, \
     fallbacks %d, bit-identical %b@."
    (compile_time *. 1e3) min_cold min_warm !total_fallbacks all_identical;
  Format.printf
    "acceptance: >=1.2x cache-miss labeling speedup (warm atom memo) with zero fallbacks — %s@."
    (if min_warm >= 1.2 && !total_fallbacks = 0 && all_identical then "PASS" else "FAIL");
  let json_path = Option.value options.server_json ~default:"BENCH_compile.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row_json =
        String.concat ",\n"
          (List.map
             (fun ( (atoms, interp, cold, cold_speedup, warm, warm_speedup, ident),
                    ((fold_us, fold_w), (split_us, split_w), (label_us, label_w)) ) ->
               Printf.sprintf
                 "    {\"max_atoms\": %d, \"interpreted_s_per_1m\": %.4f, \
                  \"compiled_cold_s_per_1m\": %.4f, \"cold_speedup\": %.2f, \
                  \"compiled_warm_s_per_1m\": %.4f, \"warm_speedup\": %.2f, \
                  \"bit_identical\": %b, \"fold_us\": %.2f, \"fold_words\": %.0f, \
                  \"split_us\": %.2f, \"split_words\": %.0f, \"atom_label_us\": %.2f, \
                  \"atom_label_words\": %.0f}"
                 atoms interp cold cold_speedup warm warm_speedup ident fold_us fold_w
                 split_us split_w label_us label_w)
             !rows)
      in
      let groups = match !last_stats with Some s -> s.Artifact.groups | None -> 0 in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"compile\",\n\
        \  \"queries\": %d,\n\
        \  \"compile_ms\": %.3f,\n\
        \  \"rows\": [\n%s\n  ],\n\
        \  \"min_cold_speedup\": %.2f,\n\
        \  \"min_warm_speedup\": %.2f,\n\
        \  \"fallbacks\": %d,\n\
        \  \"bit_identical\": %b,\n\
        \  \"artifact\": {\"groups\": %d}\n\
         }\n"
        n (compile_time *. 1e3) row_json min_cold min_warm !total_fallbacks all_identical
        groups);
  Format.printf "(wrote %s)@." json_path

(* ------------------------------------------------------------------ *)
(* Tiered principal store: million-principal Zipfian populations       *)

(* Two legs (DESIGN.md §14). The differential leg pushes one seeded
   Zipfian history through an always-resident service and through a tiered
   one whose budget is far below the population (eviction pressure on every
   decision, a mid-history checkpoint so spilled principals flow through
   the checkpoint writer): decisions, journal bytes, checkpoint bytes, and
   the final snapshot must be bit-identical or the bench exits 1. The scale
   leg then grows the population to a million principals under a fixed
   budget and reports registration cost, sustained decisions/sec, the
   resident set, and fault-in latency percentiles. *)
let run_principals () =
  let module Service = Disclosure.Service in
  let module Principalgen = Workload.Principalgen in
  let pipeline = Fbschema.Fb_views.pipeline () in
  let views = Array.of_list Fbschema.Fb_views.all in
  (* A small shared pool of policy specs: each cold principal keeps one word
     of pool reference, which is what makes a million of them cheap. *)
  let pool_rng = Workload.Rng.create 1851 in
  let pool =
    Array.init 8 (fun _ ->
        Policygen.partitions pool_rng ~views ~max_partitions:2 ~max_elements:10)
  in
  let spec rank = pool.(rank mod Array.length pool) in
  let g = Querygen.create ~seed:31337 () in
  let queries = Array.init 64 (fun _ -> Querygen.generate g ~max_subqueries:1) in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rm f = try Sys.remove f with Sys_error _ -> () in
  Format.printf
    "@.== Tiered principal store: Zipfian populations under a resident budget ==@.@.";
  let diff_n = 10_000 in
  let diff_budget = 256 in
  let diff_queries = min options.n 10_000 in
  let run_history ~budget =
    let base = Filename.temp_file "bench_principals" ".journal" in
    Sys.remove base;
    let service = Service.create ~journal:base pipeline in
    let store =
      match budget with
      | None -> None
      | Some b ->
        Some
          (Store.create ~budget:(Store.Principals b) ~spill:(base ^ ".spill")
             service)
    in
    let register principal partitions =
      match store with
      | Some s -> Store.register s ~principal ~partitions
      | None -> Service.register service ~principal ~partitions
    in
    for rank = 0 to diff_n - 1 do
      register (Principalgen.name rank) (spec rank)
    done;
    let zipf =
      Principalgen.create ~skew:1.0 ~n:diff_n (Workload.Rng.create 424242)
    in
    let decisions = ref [] in
    for i = 0 to diff_queries - 1 do
      let principal = Principalgen.name (Principalgen.next zipf) in
      let d =
        Service.submit service ~principal queries.(i mod Array.length queries)
      in
      decisions := d :: !decisions;
      (match store with Some s -> Store.enforce s | None -> ());
      if i = diff_queries / 2 then begin
        (match Service.checkpoint service with
        | Ok () -> ()
        | Error msg -> failwith ("bench principals: checkpoint failed: " ^ msg));
        match store with Some s -> Store.compact s | None -> ()
      end
    done;
    let snap = Service.snapshot service in
    let stats = Option.map Store.stats store in
    (match store with Some s -> Store.close s | None -> ());
    Service.close service;
    let tail = read_file base in
    let ckpt = read_file (base ^ ".ckpt") in
    Journal.remove_family base;
    (List.rev !decisions, snap, tail, ckpt, stats)
  in
  let d_base, s_base, tail_base, ckpt_base, _ = run_history ~budget:None in
  let d_tier, s_tier, tail_tier, ckpt_tier, tier_stats =
    run_history ~budget:(Some diff_budget)
  in
  let decisions_ok = d_base = d_tier in
  let snapshot_ok = s_base = s_tier in
  let journal_ok = String.equal tail_base tail_tier in
  let ckpt_ok = String.equal ckpt_base ckpt_tier in
  let identical = decisions_ok && snapshot_ok && journal_ok && ckpt_ok in
  let diff_stats = Option.get tier_stats in
  (* A differential that never evicted or faulted in proves nothing. *)
  let exercised =
    diff_stats.Store.stat_evictions > 0 && diff_stats.Store.stat_fault_ins > 0
  in
  Format.printf
    "differential (%d principals, budget %d, %d decisions): decisions %b, \
     journal %b, checkpoint %b, snapshot %b (%d evictions, %d fault-ins)@.@."
    diff_n diff_budget diff_queries decisions_ok journal_ok ckpt_ok snapshot_ok
    diff_stats.Store.stat_evictions diff_stats.Store.stat_fault_ins;
  (* Scale leg: population sweep under a fixed budget, journal-less so the
     point measures the store + monitor path (pre-labeled queries). *)
  let counts =
    if options.principals_set then options.principals
    else [ 10_000; 100_000; 1_000_000 ]
  in
  let budget = 4_096 in
  Format.printf "%-12s %12s %12s %10s %10s %10s %10s %12s %12s@." "principals"
    "register(s)" "decisions/s" "resident" "spilled" "fresh" "fault-ins"
    "p50(us)" "p99(us)";
  let point n =
    let fault_s = ref [] in
    let observe (o : Service.observation) =
      match o.Service.stage with
      | `Fault_in -> fault_s := o.Service.seconds :: !fault_s
      | _ -> ()
    in
    let service = Service.create ~observe pipeline in
    let spill = Filename.temp_file "bench_principals" ".spill" in
    let store = Store.create ~budget:(Store.Principals budget) ~spill service in
    let (), register_s =
      time_wall (fun () ->
          for rank = 0 to n - 1 do
            Store.register store
              ~principal:(Principalgen.name rank)
              ~partitions:(spec rank)
          done)
    in
    let zipf =
      Principalgen.create ~skew:1.0 ~n (Workload.Rng.create (9_000_000 + n))
    in
    let labels =
      Array.of_list
        (Array.to_list queries
        |> List.filter_map (fun q ->
               match Service.label_query service q with
               | Ok l -> Some l
               | Error _ -> None))
    in
    let q = min options.n 20_000 in
    let (), wall =
      time_wall (fun () ->
          for i = 0 to q - 1 do
            let principal = Principalgen.name (Principalgen.next zipf) in
            ignore
              (Service.submit_label service ~principal
                 labels.(i mod Array.length labels));
            Store.enforce store
          done)
    in
    let st = Store.stats store in
    let within = st.Store.stat_resident <= budget in
    let samples = Array.of_list !fault_s in
    Array.sort compare samples;
    let pct p =
      if Array.length samples = 0 then 0.0
      else
        samples.(min
                   (Array.length samples - 1)
                   (int_of_float (p *. float_of_int (Array.length samples))))
    in
    let p50 = pct 0.50 *. 1e6 and p99 = pct 0.99 *. 1e6 in
    Store.close store;
    Service.close service;
    rm spill;
    let qps = float_of_int q /. wall in
    Format.printf "%-12d %12.3f %12.0f %10d %10d %10d %10d %12.1f %12.1f%s@." n
      register_s qps st.Store.stat_resident st.Store.stat_spilled
      st.Store.stat_fresh st.Store.stat_fault_ins p50 p99
      (if within then "" else "  (OVER BUDGET)");
    (n, register_s, q, qps, st, p50, p99, within)
  in
  let rows = List.map point counts in
  let all_within = List.for_all (fun (_, _, _, _, _, _, _, w) -> w) rows in
  write_csv "principals.csv"
    [ "principals"; "register_s"; "decisions_per_s"; "resident"; "spilled";
      "fresh"; "fault_ins"; "fault_in_p50_us"; "fault_in_p99_us" ]
    (List.map
       (fun (n, reg, _, qps, st, p50, p99, _) ->
         [ string_of_int n; Printf.sprintf "%.3f" reg; Printf.sprintf "%.0f" qps;
           string_of_int st.Store.stat_resident;
           string_of_int st.Store.stat_spilled;
           string_of_int st.Store.stat_fresh;
           string_of_int st.Store.stat_fault_ins; Printf.sprintf "%.1f" p50;
           Printf.sprintf "%.1f" p99 ])
       rows);
  let json_path = Option.value options.server_json ~default:"BENCH_principals.json" in
  let oc = open_out json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let row_json =
        rows
        |> List.map (fun (n, reg, q, qps, st, p50, p99, within) ->
               Printf.sprintf
                 "{\"principals\": %d, \"register_s\": %.3f, \"decisions\": %d, \
                  \"decisions_per_s\": %.0f, \"resident\": %d, \"spilled\": %d, \
                  \"fresh\": %d, \"fault_ins\": %d, \"evictions\": %d, \
                  \"spill_bytes\": %d, \"fault_in_p50_us\": %.2f, \
                  \"fault_in_p99_us\": %.2f, \"within_budget\": %b}"
                 n reg q qps st.Store.stat_resident st.Store.stat_spilled
                 st.Store.stat_fresh st.Store.stat_fault_ins
                 st.Store.stat_evictions st.Store.stat_spill_bytes p50 p99 within)
        |> String.concat ",\n    "
      in
      Printf.fprintf oc
        "{\n\
        \  \"benchmark\": \"principals\",\n\
        \  \"budget_principals\": %d,\n\
        \  \"zipf_skew\": 1.0,\n\
        \  \"differential\": {\"principals\": %d, \"budget\": %d, \"decisions\": %d, \
         \"decisions_identical\": %b, \"journal_identical\": %b, \
         \"checkpoint_identical\": %b, \"snapshot_identical\": %b, \
         \"evictions\": %d, \"fault_ins\": %d},\n\
        \  \"points\": [\n    %s\n  ],\n\
        \  \"within_budget\": %b\n\
         }\n"
        budget diff_n diff_budget diff_queries decisions_ok journal_ok ckpt_ok
        snapshot_ok diff_stats.Store.stat_evictions
        diff_stats.Store.stat_fault_ins row_json all_within);
  Format.printf "(wrote %s)@." json_path;
  Format.printf
    "@.acceptance: tiered store bit-identical to always-resident under \
     eviction pressure, resident set within budget at every population — %s@."
    (if identical && exercised && all_within then "PASS" else "FAIL");
  if not (identical && exercised) then begin
    Format.printf
      "FAIL: tiered differential: decisions %b, journal %b, checkpoint %b, \
       snapshot %b, exercised %b@."
      decisions_ok journal_ok ckpt_ok snapshot_ok exercised;
    exit 1
  end;
  if not all_within then begin
    Format.printf "FAIL: resident set exceeded the %d-principal budget@." budget;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "@.== Micro-benchmarks (Bechamel, OLS ns/op) ==@.@.";
  let pipeline = Fbschema.Fb_views.pipeline () in
  let g = Querygen.create ~seed:31337 () in
  let simple = Array.init 1024 (fun _ -> Querygen.generate g ~max_subqueries:1) in
  let stress = Array.init 256 (fun _ -> Querygen.generate g ~max_subqueries:5) in
  let cursor = ref 0 in
  let pick arr =
    let i = !cursor in
    cursor := i + 1;
    arr.(i mod Array.length arr)
  in
  let atom s =
    match Disclosure.Tagged.atom_of_query (Cq.Parser.query_exn s) with
    | Ok a -> a
    | Error e -> failwith e
  in
  let v6 = atom "V6(x, y) :- Contacts(x, y, z)" in
  let v7 = atom "V7(x, z) :- Contacts(x, y, z)" in
  let registry = Pipeline.registry pipeline in
  let policy =
    Disclosure.Policy.stateless registry (Pipeline.views pipeline)
  in
  let monitor = Monitor.create policy in
  let labels = Array.map (Pipeline.label pipeline) simple in
  let tests =
    Test.make_grouped ~name:"disclosure"
      [
        Test.make ~name:"genmgu-unify"
          (Staged.stage (fun () -> ignore (Disclosure.Genmgu.unify v6 v7)));
        Test.make ~name:"rewrite-check"
          (Staged.stage (fun () -> ignore (Disclosure.Rewrite_single.leq_atom v7 v6)));
        Test.make ~name:"dissect-simple"
          (Staged.stage (fun () -> ignore (Disclosure.Dissect.dissect (pick simple))));
        Test.make ~name:"label-bitvec-simple"
          (Staged.stage (fun () -> ignore (Pipeline.label pipeline (pick simple))));
        Test.make ~name:"label-bitvec-stress"
          (Staged.stage (fun () -> ignore (Pipeline.label pipeline (pick stress))));
        Test.make ~name:"label-hashed-simple"
          (Staged.stage (fun () -> ignore (Pipeline.label_hashed pipeline (pick simple))));
        Test.make ~name:"label-baseline-simple"
          (Staged.stage (fun () -> ignore (Pipeline.label_baseline pipeline (pick simple))));
        Test.make ~name:"monitor-submit"
          (Staged.stage (fun () -> ignore (Monitor.submit monitor (pick labels))));
        Test.make ~name:"query-generation"
          (Staged.stage (fun () -> ignore (Querygen.generate g ~max_subqueries:1)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "  %-35s %12.1f ns/op@." name est
      | Some _ | None -> Format.printf "  %-35s %12s@." name "n/a")
    rows

(* ------------------------------------------------------------------ *)

let () =
  parse_args ();
  let commands =
    if options.commands = [] then
      [ "table2"; "fig3"; "fig5"; "fig6"; "ablation"; "guard"; "server"; "obs"; "recover"; "net"; "replicate"; "compile"; "principals"; "micro" ]
    else options.commands
  in
  Format.printf
    "Disclosure-control benchmark harness (Bender et al., SIGMOD 2013 reproduction)@.";
  List.iter
    (fun cmd ->
      match cmd with
      | "table2" -> run_table2 ()
      | "fig3" -> run_fig3 ()
      | "fig5" -> run_fig5 ()
      | "fig6" -> run_fig6 ()
      | "ablation" -> run_ablation ()
      | "guard" -> run_guard ()
      | "server" -> run_server ()
      | "obs" -> run_obs ()
      | "recover" -> run_recover ()
      | "net" -> run_net ()
      | "replicate" -> run_replicate ()
      | "compile" -> run_compile ()
      | "principals" -> run_principals ()
      | "micro" -> run_micro ()
      | "all" ->
        run_table2 ();
        run_fig3 ();
        run_fig5 ();
        run_fig6 ();
        run_ablation ();
        run_guard ();
        run_server ();
        run_obs ();
        run_recover ();
        run_net ();
        run_replicate ();
        run_compile ();
        run_principals ();
        run_micro ()
      | other ->
        Format.printf
          "unknown command %s (try table2|fig3|fig5|fig6|ablation|guard|server|obs|recover|net|replicate|compile|principals|micro)@."
          other)
    commands
