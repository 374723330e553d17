(* Differential suite for lib/compile: the AOT-compiled labeler must be
   bit-identical to the interpreted pipeline — same Label.t words, same
   monitor decisions, same fault-injection behaviour — on every query,
   cold and atom-memo-warm, and across a policy reload. Its own executable
   (like the fault suite): it arms the global fault hooks and spawns a
   server for the reload regression. *)

module Tagged = Disclosure.Tagged
module RS = Disclosure.Rewrite_single
module Sview = Disclosure.Sview
module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard
module Faults = Disclosure.Faults
module Policyfile = Disclosure.Policyfile
module Value = Relational.Value
module Pattern = Disclosure.Pattern
module Dissect = Disclosure.Dissect
module Matcher = Compile.Matcher
module Intern = Compile.Intern
module Artifact = Compile.Artifact
module Gen = QCheck.Gen

let pq = Cq.Parser.query_exn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let count = 200

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* --- generators (self-contained; this executable owns no test helpers) -- *)

(* Three predicates so same-relation pairs are common and arities differ. *)
let preds = [ ("R", 3); ("S", 2); ("T", 4) ]

let var_names = [| "x"; "y"; "z"; "w"; "u" |]

let gen_value =
  Gen.oneofl [ Value.Int 1; Value.Int 2; Value.Str "a"; Value.Bool true ]

(* Well-formed tagged atoms: kinds chosen per variable name first, so no
   variable occurs with two kinds; constants mixed in so the const-class
   machinery is exercised. *)
let gen_tagged_atom_of pred arity : Tagged.atom Gen.t =
  let open Gen in
  let* kinds = array_repeat (Array.length var_names) bool in
  let gen_term =
    frequency
      [
        (2, map (fun v -> Tagged.Const v) gen_value);
        ( 8,
          map
            (fun i ->
              Tagged.Var
                ( var_names.(i),
                  if kinds.(i) then Tagged.Distinguished else Tagged.Existential ))
            (int_bound (Array.length var_names - 1)) );
      ]
  in
  let* args = list_repeat arity gen_term in
  return { Tagged.pred; args }

let gen_tagged_atom : Tagged.atom Gen.t =
  let open Gen in
  let* pred, arity = oneofl preds in
  gen_tagged_atom_of pred arity

(* A same-relation (query atom, view atom) pair — the interesting case for
   the matcher equivalence (cross-relation is trivially false). *)
let gen_atom_pair : (Tagged.atom * Tagged.atom) Gen.t =
  let open Gen in
  let* pred, arity = oneofl preds in
  pair (gen_tagged_atom_of pred arity) (gen_tagged_atom_of pred arity)

let arbitrary_atom_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)" (Tagged.atom_to_string a) (Tagged.atom_to_string b))
    gen_atom_pair

(* A random view universe (1–6 views, possibly constant-bearing) plus a
   batch of random queries to label under it. *)
let gen_universe : (Sview.t list * Cq.Query.t list) Gen.t =
  let open Gen in
  let* n_views = int_range 1 6 in
  let* atoms = list_repeat n_views gen_tagged_atom in
  let views = List.mapi (fun i a -> Sview.make ~name:(Printf.sprintf "V%d" i) a) atoms in
  let gen_term =
    frequency
      [
        (2, map (fun v -> Cq.Term.Const v) gen_value);
        ( 8,
          map (fun i -> Cq.Term.Var var_names.(i)) (int_bound (Array.length var_names - 1))
        );
      ]
  in
  let gen_atom =
    let* pred, arity = oneofl preds in
    let* args = list_repeat arity gen_term in
    return (Cq.Atom.make pred args)
  in
  let gen_query =
    let* n_atoms = int_range 1 3 in
    let* body = list_repeat n_atoms gen_atom in
    let distinct = List.sort_uniq String.compare (List.concat_map Cq.Atom.vars body) in
    let* selector = list_repeat (List.length distinct) bool in
    let head =
      List.filteri (fun i _ -> List.nth selector i) distinct
      |> List.map (fun v -> Cq.Term.Var v)
    in
    return (Cq.Query.make ~name:"Q" ~head ~body ())
  in
  let* queries = list_repeat 5 gen_query in
  return (views, queries)

let arbitrary_universe =
  QCheck.make
    ~print:(fun (views, queries) ->
      Printf.sprintf "views: %s\nqueries: %s"
        (String.concat "; " (List.map Sview.to_string views))
        (String.concat "; " (List.map Cq.Query.to_string queries)))
    gen_universe

(* --- pattern encoding --------------------------------------------------- *)

let atom pred args = { Tagged.pred; args }
let dv n = Tagged.Var (n, Tagged.Distinguished)
let ev n = Tagged.Var (n, Tagged.Existential)

let test_pattern_encoding () =
  (* Classes are first-occurrence dense, one space per kind. *)
  let p = Pattern.encode_exn (atom "R" [ dv "x"; ev "y"; dv "x" ]) in
  check_bool "codes capture kind + class" true
    (p.Pattern.codes
    = [|
        Pattern.code ~tag:Pattern.tag_dist ~cls:0;
        Pattern.code ~tag:Pattern.tag_exist ~cls:0;
        Pattern.code ~tag:Pattern.tag_dist ~cls:0;
      |]);
  check_int "no constants" 0 (Array.length p.Pattern.consts);
  (* Repeated constants share a class; consts recorded in class order. *)
  let c = Tagged.Const (Value.Str "a") in
  let q = Pattern.encode_exn (atom "R" [ c; dv "x"; c ]) in
  check_bool "constant classes" true
    (q.Pattern.codes
    = [|
        Pattern.code ~tag:Pattern.tag_const ~cls:0;
        Pattern.code ~tag:Pattern.tag_dist ~cls:0;
        Pattern.code ~tag:Pattern.tag_const ~cls:0;
      |]);
  check_bool "const values in class order" true (q.Pattern.consts = [| Value.Str "a" |]);
  (* Names never matter: an alpha-renamed atom encodes identically. *)
  let a = Pattern.encode_exn (atom "S" [ dv "x"; ev "y" ]) in
  let b = Pattern.encode_exn (atom "S" [ dv "q"; ev "r" ]) in
  check_bool "alpha-invariant" true (a = b);
  (* The fragment boundary: max_arity is in, max_arity + 1 is out. *)
  let wide n = atom "W" (List.init n (fun i -> dv (Printf.sprintf "x%d" i))) in
  check_bool "arity max_arity encodes" true (Pattern.encode (wide Pattern.max_arity) <> None);
  check_bool "arity max_arity + 1 is outside the fragment" true
    (Pattern.encode (wide (Pattern.max_arity + 1)) = None)

(* The atom memo's hash reads the whole pattern: two 34-column User atoms
   that differ only in their last column (existential vs distinguished)
   must not share a hash, or every probe walks a long collision chain. *)
let test_memo_hash_whole_pattern () =
  let user last = atom "User" (dv "u" :: List.init 32 (fun i -> ev (Printf.sprintf "e%d" i)) @ [ last ]) in
  let a = Pattern.memo_key (Pattern.encode_exn (user (ev "z"))) in
  let b = Pattern.memo_key (Pattern.encode_exn (user (dv "z"))) in
  check_bool "patterns differ" true (a <> b);
  check_bool "hashes differ" true (Pattern.hash a <> Pattern.hash b)

(* --- matcher ≡ leq_atom ------------------------------------------------- *)

let matcher_equiv =
  prop "matcher programs ≡ Rewrite_single.leq_atom" arbitrary_atom_pair
    (fun (query, view) ->
      Matcher.run (Matcher.compile view) (Pattern.encode_exn query)
      = RS.leq_atom query view)

(* --- artifact ≡ pipeline: labels, cold and atom-memo-warm --------------- *)

let labels_equal (a : Label.t) (b : Label.t) = a = b

let artifact_label_equiv =
  prop "compiled labels ≡ interpreted labels (cold + warm)" arbitrary_universe
    (fun (views, queries) ->
      let pipeline = Pipeline.create views in
      let artifact = Artifact.compile pipeline in
      List.for_all
        (fun q ->
          let interpreted = Pipeline.label pipeline q in
          let cold = Artifact.label artifact q in
          (* Warm relabels through the per-atom memo (same patterns). *)
          let warm = Artifact.label artifact q in
          labels_equal interpreted cold && labels_equal interpreted warm)
        queries
      && Artifact.fallbacks artifact = 0)

let artifact_atom_equiv =
  prop "compiled atom labels ≡ Pipeline.label_atom" arbitrary_universe
    (fun (views, _) ->
      let pipeline = Pipeline.create views in
      let artifact = Artifact.compile pipeline in
      let atoms =
        Gen.generate ~n:10 ~rand:(Random.State.make [| 0xA70 |]) gen_tagged_atom
      in
      List.for_all
        (fun a -> Artifact.label_atom artifact a = Pipeline.label_atom pipeline a)
        atoms)

(* --- monitor decisions: compiled serving path ≡ interpreted submit ------ *)

let v1 = Sview.of_string "V1(x, y) :- Meetings(x, y)"
let v2 = Sview.of_string "V2(x) :- Meetings(x, y)"
let v3 = Sview.of_string "V3(x, y, z) :- Contacts(x, y, z)"
let v4 = Sview.of_string "V4(x, y) :- Contacts(x, y, 'Intern')"

let fixed_views = [ v1; v2; v3; v4 ]

let register_all register =
  register ~principal:"calendar-app" ~partitions:[ ("default", [ v2 ]) ];
  register ~principal:"crm-app"
    ~partitions:[ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
  register ~principal:"hr-app" ~partitions:[ ("default", [ v3; v4 ]) ]

let principals = [| "calendar-app"; "crm-app"; "hr-app" |]

let fixed_queries =
  [|
    pq "Q(x) :- Meetings(x, y)";
    pq "Q(x, y) :- Meetings(x, y)";
    pq "Q(y) :- Meetings(x, y)";
    pq "Q(x, y, z) :- Contacts(x, y, z)";
    pq "Q(x, y) :- Contacts(x, y, 'Intern')";
    pq "Q(x) :- Contacts(x, y, 'Boss')";
    pq "Q(x) :- Meetings(x, y), Contacts(y, e, p)";
    pq "Q() :- Unknown(u)";
  |]

(* The serving layer's composition of the compiled path: guarded labeling
   via the artifact, then the pre-labeled submit (Shard.label_query's exact
   shape, minus the cache). *)
let submit_compiled service artifact ~principal q =
  match
    Service.label_query_with service
      ~labeler:(fun ~budget q -> Artifact.label ~budget artifact q)
      q
  with
  | Ok label -> Service.submit_label service ~principal label
  | Error reason -> Service.refuse service ~principal reason

let make_fixed_service () =
  let pipeline = Pipeline.create fixed_views in
  let service = Service.create pipeline in
  register_all (fun ~principal ~partitions ->
      Service.register service ~principal ~partitions);
  (service, pipeline)

let test_decision_differential () =
  let rng = Random.State.make [| 0xD1FF |] in
  for _round = 1 to 60 do
    let si, _ = make_fixed_service () in
    let sc, pipeline = make_fixed_service () in
    let artifact = Artifact.compile pipeline in
    for _step = 1 to 1 + Random.State.int rng 15 do
      let principal = principals.(Random.State.int rng (Array.length principals)) in
      let q = fixed_queries.(Random.State.int rng (Array.length fixed_queries)) in
      let di = Service.submit si ~principal q in
      let dc = submit_compiled sc artifact ~principal q in
      if not (Monitor.decision_equal di dc) then
        Alcotest.failf "%s / %s: interpreted %a, compiled %a" principal
          (Cq.Query.to_string q) Monitor.pp_decision di Monitor.pp_decision dc
    done;
    check_bool "monitor states bit-identical" true (Service.snapshot si = Service.snapshot sc);
    check_int "no fallbacks on the standard views" 0 (Artifact.fallbacks artifact)
  done

(* --- the coded split ≡ encode_exn over dissect -------------------------- *)

(* The compiled labeler probes its memo with the patterns the split numbers
   from the fold's codes; the interpreter and [label_atom] see the Tagged
   atoms [dissect] returns, encoded by [Pattern.encode_exn]. Both must
   agree atom for atom, in order, folded or not — and every kept atom
   outside the fragment is one fallback, counted once. *)
let split_agrees ~pipeline q =
  let agree split atoms =
    List.length split = List.length atoms
    && List.for_all2
         (fun (t, p) a ->
           Tagged.atom_equal t a
           &&
           match Pattern.encode a with
           | Some e -> e = p
           | None -> Pattern.arity p > Pattern.max_arity)
         split atoms
  in
  let pair a p = (Dissect.tagged a p, p) in
  let atoms = Dissect.dissect q in
  let artifact = Artifact.compile pipeline in
  let label = Artifact.label artifact q in
  agree (Dissect.map_dissect pair q) atoms
  && agree (Dissect.map_split pair (Cq.Minimize.encode q)) (Dissect.dissect_no_fold q)
  && labels_equal label (Pipeline.label pipeline q)
  && Artifact.fallbacks artifact
     = List.length (List.filter (fun a -> Pattern.encode a = None) atoms)

let fb_pipeline = lazy (Fbschema.Fb_views.pipeline ())

let split_equiv =
  prop "coded split ≡ encode_exn over dissect (generated queries)"
    (QCheck.make ~print:Cq.Query.to_string
       (Gen.map
          (fun seed ->
            Workload.Querygen.generate (Workload.Querygen.create ~seed ()) ~max_subqueries:5)
          Gen.nat))
    (split_agrees ~pipeline:(Lazy.force fb_pipeline))

let test_split_edge_cases () =
  let n = Pattern.max_arity + 1 in
  let wide_args = String.concat ", " (List.init n (Printf.sprintf "x%d")) in
  let wide_view = Sview.of_string (Printf.sprintf "W(%s) :- Wide(%s)" wide_args wide_args) in
  let pipeline = Pipeline.create (wide_view :: fixed_views) in
  let patterns q = Dissect.map_dissect (fun _ p -> p) (pq q) in
  let codes tags = Array.of_list (List.map (fun (tag, cls) -> Pattern.code ~tag ~cls) tags) in
  let c, d, e = (Pattern.tag_const, Pattern.tag_dist, Pattern.tag_exist) in
  List.iter
    (fun (name, q, expected) ->
      check_bool (name ^ ": split ≡ encode_exn over dissect") true
        (split_agrees ~pipeline (pq q));
      check_bool (name ^ ": patterns") true (patterns q = expected))
    [
      ( "constant repeated inside one atom",
        "Q(x) :- Contacts(x, 'a', 'a')",
        [
          {
            Pattern.pred = "Contacts";
            codes = codes [ (d, 0); (c, 0); (c, 0) ];
            consts = [| Value.Str "a" |];
          };
        ] );
      ( "equal constants in two atoms",
        "Q(x) :- Meetings(x, 'a'), Contacts('b', x, 'a')",
        [
          {
            Pattern.pred = "Meetings";
            codes = codes [ (d, 0); (c, 0) ];
            consts = [| Value.Str "a" |];
          };
          {
            Pattern.pred = "Contacts";
            codes = codes [ (c, 0); (d, 0); (c, 1) ];
            consts = [| Value.Str "b"; Value.Str "a" |];
          };
        ] );
      ( "join-promoted existential",
        "Q(x) :- Meetings(x, y), Contacts(y, e, e)",
        [
          { Pattern.pred = "Meetings"; codes = codes [ (d, 0); (d, 1) ]; consts = [||] };
          { Pattern.pred = "Contacts"; codes = codes [ (d, 0); (e, 0); (e, 0) ]; consts = [||] };
        ] );
      ( "atom iso-equivalent to an earlier one",
        "Q(x, y) :- Meetings(x, z), Meetings(y, z)",
        [ { Pattern.pred = "Meetings"; codes = codes [ (d, 0); (d, 1) ]; consts = [||] } ] );
    ];
  (* Wider than max_arity: the pattern is still numbered (it is the dedup
     key), but the artifact labels the atom through the interpreter, once
     per kept wide atom. *)
  let q =
    pq (Printf.sprintf "Q(x0) :- Wide(%s), Meetings(x0, y), Wide(%s)" wide_args wide_args)
  in
  check_bool "wide atom: split ≡ encode_exn over dissect" true (split_agrees ~pipeline q);
  let artifact = Artifact.compile pipeline in
  ignore (Artifact.label artifact q);
  check_int "one fallback for the one kept wide atom" 1 (Artifact.fallbacks artifact);
  check_bool "the in-fragment atom still took the memo path" true
    ((Artifact.stats artifact).Artifact.atom_misses = 1)

(* --- fault injection: identical trip schedule --------------------------- *)

let outcome f = match f () with l -> Ok l | exception e -> Error (Printexc.to_string e)

let label_stages = [ Faults.Minimize; Faults.Dissect; Faults.Label ]
let all_faults = [ Faults.Exhaust_fuel; Faults.Expire_deadline; Faults.Raise "injected" ]

let fault_name stage fault =
  Format.asprintf "%a/%a" Faults.pp_stage stage Faults.pp_fault fault

let test_fault_differential () =
  let queries = [ fixed_queries.(0); fixed_queries.(4); fixed_queries.(6) ] in
  let pipeline = Pipeline.create fixed_views in
  List.iter
    (fun q ->
      List.iter
        (fun stage ->
          List.iter
            (fun fault ->
              let name = Printf.sprintf "%s @ %s" (Cq.Query.to_string q) (fault_name stage fault) in
              (* Cold: every atom misses the atom memo. *)
              let cold = Artifact.compile pipeline in
              let expected =
                Faults.with_fault stage fault (fun () ->
                    outcome (fun () -> Pipeline.label pipeline q))
              in
              let got =
                Faults.with_fault stage fault (fun () ->
                    outcome (fun () -> Artifact.label cold q))
              in
              if got <> expected then Alcotest.failf "cold %s: outcomes differ" name;
              (* Warm: every atom hits the atom memo, and the trip schedule
                 (Minimize, Dissect, one Label per atom) must not change —
                 else a fault schedule could tell the paths apart. *)
              let warm = Artifact.compile pipeline in
              ignore (Artifact.label warm q);
              let got_warm =
                Faults.with_fault stage fault (fun () ->
                    outcome (fun () -> Artifact.label warm q))
              in
              if got_warm <> expected then Alcotest.failf "warm %s: outcomes differ" name)
            all_faults)
        label_stages)
    queries

(* Service-level: under any labeling-stage fault the compiled serving path
   refuses exactly as the interpreted one, leaving the monitor untouched. *)
let test_fault_decisions () =
  List.iter
    (fun stage ->
      List.iter
        (fun fault ->
          let name = fault_name stage fault in
          let si, _ = make_fixed_service () in
          let sc, pipeline = make_fixed_service () in
          let artifact = Artifact.compile pipeline in
          (* Warm both paths first so the fault hits atom-memo hits. *)
          let q = fixed_queries.(0) in
          ignore (Service.submit si ~principal:"crm-app" q);
          ignore (submit_compiled sc artifact ~principal:"crm-app" q);
          let before = Service.snapshot sc in
          let di, dc =
            Faults.with_fault stage fault (fun () ->
                ( Service.submit si ~principal:"crm-app" q,
                  submit_compiled sc artifact ~principal:"crm-app" q ))
          in
          if not (Monitor.decision_equal di dc) then
            Alcotest.failf "%s: interpreted %a, compiled %a" name Monitor.pp_decision di
              Monitor.pp_decision dc;
          (match dc with
          | Monitor.Refused _ -> ()
          | Monitor.Answered -> Alcotest.failf "%s: fault was answered" name);
          check_bool (name ^ ": refusal left monitor bit-identical") true
            (Service.snapshot sc = before))
        all_faults)
    label_stages

(* --- policy reload: fresh artifact, fresh caches, bumped version -------- *)

let policy : Policyfile.t =
  {
    Policyfile.views = [ v1; v2; v3 ];
    principals = [ ("calendar-app", [ ("default", [ "V2" ]) ]) ];
  }

let server_config =
  { Server.default_config with Server.domains = 1; cache_capacity = 256 }

let test_reload_recompiles () =
  let server = Server.create ~config:server_config (Pipeline.create [ v1; v2; v3 ]) in
  (match Policyfile.resolve policy with
  | Ok resolved ->
    List.iter
      (fun (principal, partitions) -> Server.register server ~principal ~partitions)
      resolved
  | Error e -> Alcotest.failf "resolve: %s" e);
  Server.start server;
  let q = pq "Q(x, y) :- Meetings(x, y)" in
  (* Refused under V2-only — and submitted twice so the label is sitting in
     the label cache, and its atom in the artifact's memo, when the reload
     hits. *)
  check_bool "refused under old policy" true
    (Server.submit_sync server ~principal:"calendar-app" q <> Monitor.Answered);
  check_bool "refused again (warm)" true
    (Server.submit_sync server ~principal:"calendar-app" q <> Monitor.Answered);
  Server.drain server;
  let s0 = Server.compile_stats server in
  check_int "initial artifact version" 0 s0.Artifact.version;
  (* One intern per decision, by the cache lookup (labeling does not
     intern), and the repeat never re-labels — its interned key matched (the
     one intern hit) and the label came from the shard's cache, so the
     query's one atom went through the artifact once. *)
  check_int "repeat hit the hash-consed key" 1 s0.Artifact.intern_hits;
  check_int "first sight interned once" 1 s0.Artifact.intern_misses;
  check_int "labeled exactly once" 1 (s0.Artifact.atom_hits + s0.Artifact.atom_misses);
  (* Grant V1: the same query must flip to Answered, which requires the
     swapped-in artifact and a reset cache — a stale compiled label or a
     stale cache entry would keep refusing. *)
  let wider =
    { policy with Policyfile.principals = [ ("calendar-app", [ ("default", [ "V1" ]) ]) ] }
  in
  (match Server.reload server wider with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reload: %s" e);
  check_bool "answered under new policy" true
    (Server.submit_sync server ~principal:"calendar-app" q = Monitor.Answered);
  Server.drain server;
  let s1 = Server.compile_stats server in
  check_int "reload bumped the artifact version" 1 s1.Artifact.version;
  check_int "no fallbacks across the reload" 0 s1.Artifact.fallbacks;
  check_bool "fresh artifact started from an empty atom memo" true
    (s1.Artifact.atom_misses >= 1 && s1.Artifact.atom_hits = 0);
  (* stats_json surfaces the compile block for operators. *)
  let stats = Obs.Json.to_string (Server.stats_json server) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains stats needle) then Alcotest.failf "stats_json is missing %S" needle)
    [ "\"compile\""; "\"fallbacks\""; "\"intern_entries\""; "\"atom_misses\"" ];
  Server.stop server

(* --- the fallback escape: outside-fragment queries are counted ---------- *)

let test_fallback_counted () =
  let n = Pattern.max_arity + 1 in
  let vars = List.init n (fun i -> Printf.sprintf "x%d" i) in
  let args = String.concat ", " vars in
  let wide_view = Sview.of_string (Printf.sprintf "W(%s) :- Wide(%s)" args args) in
  let pipeline = Pipeline.create [ wide_view; v1 ] in
  let artifact = Artifact.compile pipeline in
  let q = pq (Printf.sprintf "Q(x0) :- Wide(%s)" args) in
  (* Outside the fragment: escapes to the interpreter — with the identical
     label, and counted, never silent. *)
  check_bool "fallback label ≡ interpreted" true
    (labels_equal (Artifact.label artifact q) (Pipeline.label pipeline q));
  check_bool "fallback counted" true (Artifact.fallbacks artifact > 0);
  (* In-fragment queries on the same artifact still compile. *)
  let q_ok = pq "Q(x, y) :- Meetings(x, y)" in
  let before = Artifact.fallbacks artifact in
  check_bool "in-fragment label ≡ interpreted" true
    (labels_equal (Artifact.label artifact q_ok) (Pipeline.label pipeline q_ok));
  check_int "no new fallbacks" before (Artifact.fallbacks artifact);
  (* The over-wide view's group is dropped (a matching query cannot encode
     anyway), visible in stats. *)
  let s = Artifact.stats artifact in
  check_int "only the narrow relation compiled" 1 s.Artifact.groups

(* --- interner: bounded, monotone, flush-safe ---------------------------- *)

let test_intern_flush () =
  let t = Intern.create ~capacity:4 in
  let ids = List.init 10 (fun i -> Intern.intern t (Printf.sprintf "k%d" i)) in
  (* Monotone dense ids, never reused. *)
  List.iteri (fun i id -> check_int "dense id" i id) ids;
  check_bool "flushed at capacity" true (Intern.flushes t > 0);
  check_bool "bounded" true (Intern.length t <= Intern.capacity t);
  (* A key re-interned after a flush gets a FRESH id — a stale id can never
     alias a live one, which is what makes interned ints safe cache keys. *)
  let id' = Intern.intern t "k0" in
  check_bool "stale id never re-issued" true (id' > List.nth ids 9);
  check_int "hit returns the same id" id' (Intern.intern t "k0");
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Intern.create: capacity must be >= 1") (fun () ->
      ignore (Intern.create ~capacity:0))

let test_intern_query_semantics () =
  let pipeline = Pipeline.create fixed_views in
  let artifact = Artifact.compile pipeline in
  (* The query's own name never reaches the key: renaming Q is free. *)
  let body = [ Cq.Atom.make "Meetings" [ Cq.Term.Var "x"; Cq.Term.Var "y" ] ] in
  let head = [ Cq.Term.Var "x" ] in
  let qa = Cq.Query.make ~name:"A" ~head ~body () in
  let qb = Cq.Query.make ~name:"B" ~head ~body () in
  check_int "name-insensitive" (Artifact.intern_query artifact qa)
    (Artifact.intern_query artifact qb);
  (* Different structure, different id. *)
  let qc = Cq.Query.make ~name:"A" ~head:[] ~body () in
  check_bool "structure-sensitive" true
    (Artifact.intern_query artifact qc <> Artifact.intern_query artifact qa)

(* Labels survive interner and memo flushes: a tiny artifact churns its
   tables constantly and must still be bit-identical to the interpreter.
   Each query is interned first, as a shard's cache lookup does — labeling
   itself does not intern. *)
let test_tiny_artifact_churn () =
  let pipeline = Pipeline.create fixed_views in
  let artifact = Artifact.compile ~intern_capacity:3 ~memo_capacity:3 pipeline in
  let queries =
    Array.init 12 (fun i ->
        pq (Printf.sprintf "Q(x) :- Meetings(x, y), Contacts(y, e%d, p)" i))
  in
  for _pass = 1 to 3 do
    Array.iter
      (fun q ->
        ignore (Artifact.intern_query artifact q);
        check_bool "churned label ≡ interpreted" true
          (labels_equal (Artifact.label artifact q) (Pipeline.label pipeline q)))
      queries
  done;
  let s = Artifact.stats artifact in
  check_bool "interner actually flushed" true (s.Artifact.intern_flushes > 0);
  check_int "still no fallbacks" 0 s.Artifact.fallbacks

(* --- budget: what an artifact costs to build and to label with ------- *)

(* Minor words allocated by one [Artifact.compile] of the Facebook views,
   after a first compile has warmed every lazy table it reads. On the
   calling domain [Gc.minor_words] is exact and repeats run to run. The
   artifact is one flat matcher program per view atom plus empty memos:
   10,765 words measured, so the bound leaves about 50% for honest growth
   while a structure built per group at compile time fails it. *)
let compile_words_bound = 16_000

let test_compile_allocation () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  ignore (Artifact.compile pipeline);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Artifact.compile pipeline));
  let words = int_of_float (Gc.minor_words () -. before) in
  if words > compile_words_bound then
    Alcotest.failf "Artifact.compile allocated %d minor words (bound %d)" words
      compile_words_bound

(* Minor words per first-sight label, the way a shard labels a label-cache
   miss: intern the query (the cache key), then label it. A fixed seeded
   set of distinct generated queries (up to 15 atoms, the servebench
   cold_label shape) is labeled once on a throwaway artifact to warm every
   lazy table, then on a fresh artifact, whose atom memo starts empty as a
   reloaded shard's does. 1,557 words per label measured (2,005 while the
   split built a Tagged atom for every kept atom and the artifact encoded
   it again), so the bound leaves about 5% for honest growth. *)
let label_queries = 1_000
let label_words_bound = 1_640

let test_label_allocation () =
  let pipeline = Fbschema.Fb_views.pipeline () in
  let g = Workload.Querygen.create ~seed:0xB0D () in
  let seen = Hashtbl.create label_queries in
  let rec distinct acc n =
    if n = 0 then Array.of_list acc
    else
      let q = Workload.Querygen.generate g ~max_subqueries:5 in
      let key = Cq.Query.to_string q in
      if Hashtbl.mem seen key then distinct acc n
      else (
        Hashtbl.add seen key ();
        distinct (q :: acc) (n - 1))
  in
  let queries = distinct [] label_queries in
  let label_all artifact =
    Array.iter
      (fun q ->
        ignore (Sys.opaque_identity (Artifact.intern_query artifact q));
        ignore (Sys.opaque_identity (Artifact.label artifact q)))
      queries
  in
  label_all (Artifact.compile pipeline);
  let artifact = Artifact.compile pipeline in
  let before = Gc.minor_words () in
  label_all artifact;
  let words = int_of_float (Gc.minor_words () -. before) / label_queries in
  if words > label_words_bound then
    Alcotest.failf "a first-sight label allocated %d minor words (bound %d)" words
      label_words_bound

let () =
  Alcotest.run "disclosure-compile"
    [
      ( "pattern",
        [
          Alcotest.test_case "canonical position codes" `Quick test_pattern_encoding;
          Alcotest.test_case "memo hash reads the whole pattern" `Quick
            test_memo_hash_whole_pattern;
        ] );
      ("matcher", [ matcher_equiv ]);
      ("artifact", [ artifact_label_equiv; artifact_atom_equiv ]);
      ( "split",
        [
          split_equiv;
          Alcotest.test_case "coded split edge cases" `Quick test_split_edge_cases;
        ] );
      ( "decisions",
        [
          Alcotest.test_case "compiled serving path ≡ interpreted submit" `Quick
            test_decision_differential;
        ] );
      ( "faults",
        [
          Alcotest.test_case "identical outcomes at every labeling stage" `Quick
            test_fault_differential;
          Alcotest.test_case "identical refusals through the service" `Quick
            test_fault_decisions;
        ] );
      ( "reload",
        [ Alcotest.test_case "reload recompiles and invalidates" `Quick test_reload_recompiles ] );
      ( "fallback",
        [ Alcotest.test_case "outside-fragment escape is counted" `Quick test_fallback_counted ] );
      ( "intern",
        [
          Alcotest.test_case "bounded monotone interner" `Quick test_intern_flush;
          Alcotest.test_case "query key semantics" `Quick test_intern_query_semantics;
          Alcotest.test_case "tiny artifact churn stays bit-identical" `Quick
            test_tiny_artifact_churn;
        ] );
      ( "budget",
        [
          Alcotest.test_case "compiling the Facebook views stays small" `Quick
            test_compile_allocation;
          Alcotest.test_case "a first-sight label stays small" `Quick test_label_allocation;
        ] );
    ]
