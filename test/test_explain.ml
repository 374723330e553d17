(* Tests for decision provenance (Explain + the capture plumbing through
   Service, Shard, Server, the wire protocol, and replication).

   That capture is pure observation — the same decisions, journal bytes and
   checkpoint bytes with and without it, under group commit too — is the
   differential oracle's explain axis (test/support/oracle.ml). This suite
   pins the rest: every submission-path fault still explains its refusal,
   every refusal-taxonomy variant yields a typed cause chain, an answered
   explanation names its tier, cache level, and mask delta, the wire codec
   round-trips, traces stitch across processes, and the offline audit
   ledger agrees with live stats.

   Its own executable: it arms the global fault hooks, spawns worker
   domains, binds sockets, and runs a replication pull. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard
module Faults = Disclosure.Faults
module Mclock = Disclosure.Mclock
module Explain = Disclosure.Explain
module Metrics = Server.Metrics
module Trace = Obs.Trace
module Json = Obs.Json
module Codec = Net.Codec
module Source = Replicate.Source
module Follower = Replicate.Follower

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A deterministic mixed history: answers, policy refusals, a partition
   kill (crm-app answers contacts, losing the meetings partition, then is
   refused meetings). *)
let history =
  [
    ("calendar-app", q_slots);
    ("crm-app", q_contacts);
    ("hr-app", q_contacts);
    ("calendar-app", q_meetings);
    ("crm-app", q_meetings);
    ("hr-app", q_slots);
    ("calendar-app", q_slots);
    ("crm-app", q_contacts);
  ]

let decision_eq a b =
  match (a, b) with
  | Monitor.Answered, Monitor.Answered -> true
  | Monitor.Refused r1, Monitor.Refused r2 -> Guard.refusal_equal r1 r2
  | _ -> false

let decision_pp ppf = function
  | Monitor.Answered -> Format.fprintf ppf "answered"
  | Monitor.Refused r -> Format.fprintf ppf "refused:%s" (Guard.refusal_to_tag r)

let decision_t = Alcotest.testable decision_pp decision_eq

let make_server ?limits ?journal ?trace ?domains ?mailbox_capacity ?(cache_capacity = 0)
    ?group_commit () =
  Support.make_server ?limits ?journal ?trace
    ~config:(config ?domains ?mailbox_capacity ~cache_capacity ?group_commit ())
    ()

(* Single-threaded shard harness (worker never started): [Shard.process] on
   the calling domain, so the global fault hooks are safe and deterministic. *)
let shard_harness () =
  let metrics = Metrics.create () in
  let shard =
    Server.Shard.create ~index:0 ~mailbox_capacity:16 ~cache_capacity:0 ~metrics
      (pipeline ())
  in
  Service.register (Server.Shard.service shard) ~principal:"calendar-app"
    ~partitions:[ ("default", [ v2 ]) ];
  shard

let process_plain shard ~principal q =
  let ticket = Server.Ivar.create () in
  Server.Shard.process shard
    (Server.Shard.Query
       { principal; query = q; ticket; enqueued_ns = Mclock.now_ns (); ctx = None });
  Server.Ivar.read ticket

let process_explained shard ~principal q =
  let ticket = Server.Ivar.create () in
  Server.Shard.process shard
    (Server.Shard.Explain
       { principal; query = q; ticket; enqueued_ns = Mclock.now_ns (); ctx = None });
  Server.Ivar.read ticket

(* A fault at every submission-path stage, under both kinds of budget
   exhaustion and an arbitrary crash: the explained path's decision equals
   the plain path's, and every faulted refusal still carries a cause chain. *)
let test_differential_fault_matrix () =
  List.iter
    (fun stage ->
      List.iter
        (fun fault ->
          let d_plain =
            let shard = shard_harness () in
            Faults.with_fault stage fault (fun () ->
                process_plain shard ~principal:"calendar-app" q_slots)
          in
          let d_expl, e =
            let shard = shard_harness () in
            Faults.with_fault stage fault (fun () ->
                process_explained shard ~principal:"calendar-app" q_slots)
          in
          let where =
            Printf.sprintf "%s under fault" (Faults.stage_name stage)
          in
          Alcotest.check decision_t where d_plain d_expl;
          (match d_expl with
          | Monitor.Refused _ -> (
            match e with
            | Some e ->
              check_bool (where ^ ": cause chain non-empty") true (e.Explain.cause <> []);
              check_bool (where ^ ": decision word is a refusal") true
                (String.length e.Explain.decision > 8
                && String.sub e.Explain.decision 0 8 = "refused:")
            | None -> Alcotest.failf "%s: refusal lost its explanation" where)
          | Monitor.Answered -> ()))
        [ Faults.Exhaust_fuel; Faults.Expire_deadline; Faults.Raise "boom" ])
    Faults.submission_stages

(* --- taxonomy: every refusal variant explains itself -------------------- *)

let test_cause_chain_total () =
  List.iter
    (fun (what, reason) ->
      let chain = Explain.cause_of_refusal ~stage:"decide" reason in
      check_bool (what ^ " yields a cause chain") true (chain <> []);
      List.iter
        (fun (c : Explain.cause) ->
          check_bool (what ^ " stage named") true (c.Explain.stage <> "");
          check_bool (what ^ " reason named") true (c.Explain.reason <> ""))
        chain)
    [
      ("policy", Guard.Policy);
      ("fuel", Guard.Resource Guard.Fuel);
      ("deadline", Guard.Resource Guard.Deadline);
      ( "query-too-large",
        Guard.Resource (Guard.Query_too_large { atoms = 5; max_atoms = 2 }) );
      ( "label-too-wide",
        Guard.Resource (Guard.Label_too_wide { width = 9; max_width = 2 }) );
      ("overload", Guard.Overload);
      ("malformed", Guard.Malformed "unparseable");
      ("fault", Guard.Fault "boom");
    ]

(* End-to-end explanations through a real served refusal of each reachable
   variant: policy, fuel, admission cap, width cap, overload. *)
let expect_refused_explained what server ~principal q =
  let d, e = Server.await_explained (Server.submit_explained server ~principal q) in
  match (d, e) with
  | Monitor.Refused _, Some e ->
    check_bool (what ^ ": cause chain present") true (e.Explain.cause <> []);
    check_string (what ^ ": principal recorded") principal e.Explain.principal;
    let rendered = Format.asprintf "%a" Explain.pp e in
    check_bool (what ^ ": pp renders") true (String.length rendered > 0);
    e
  | Monitor.Refused _, None -> Alcotest.failf "%s: refusal lost its explanation" what
  | Monitor.Answered, _ -> Alcotest.failf "%s: expected a refusal" what

let test_refusal_variants_end_to_end () =
  (* Policy. *)
  let server = make_server ~domains:1 () in
  Server.start server;
  let e = expect_refused_explained "policy" server ~principal:"calendar-app" q_meetings in
  check_bool "policy refusal reaches the monitor: partitions reported" true
    (e.Explain.partitions <> []);
  check_bool "policy refusal kills nothing" true (Explain.mask_delta e = 0);
  Server.stop server;
  (* Resource: fuel. *)
  let server = make_server ~domains:1 ~limits:(Guard.limits ~fuel:1 ()) () in
  Server.start server;
  let e = expect_refused_explained "fuel" server ~principal:"crm-app" q_join in
  check_bool "fuel refusal names the resource" true
    (List.exists (fun (c : Explain.cause) -> c.Explain.reason <> "") e.Explain.cause);
  Server.stop server;
  (* Resource: admission cap (query too large). *)
  let server = make_server ~domains:1 ~limits:(Guard.limits ~max_atoms:1 ()) () in
  Server.start server;
  ignore (expect_refused_explained "query-too-large" server ~principal:"crm-app" q_join);
  Server.stop server;
  (* Resource: label width cap. *)
  let server = make_server ~domains:1 ~limits:(Guard.limits ~max_label_width:1 ()) () in
  Server.start server;
  ignore (expect_refused_explained "label-too-wide" server ~principal:"crm-app" q_join);
  Server.stop server;
  (* Overload: a full mailbox on a not-yet-started server sheds the second
     submission with an explanation built on the caller's domain. *)
  let server = make_server ~domains:1 ~mailbox_capacity:1 () in
  ignore (Server.submit server ~principal:"calendar-app" q_slots);
  let d, e = Server.await_explained (Server.submit_explained server ~principal:"calendar-app" q_slots) in
  (match (d, e) with
  | Monitor.Refused Guard.Overload, Some e ->
    check_bool "overload cause chain" true (e.Explain.cause <> [])
  | Monitor.Refused Guard.Overload, None -> Alcotest.fail "overload lost its explanation"
  | _ -> Alcotest.fail "expected a shed Refused Overload");
  Server.stop server

(* --- answered content: tier, cache level, witnesses, mask delta --------- *)

let tiers = [ "atom-memo"; "matcher"; "fallback"; "interpreter" ]

let test_answered_content () =
  let server = make_server ~domains:1 () in
  Server.start server;
  let d, e = Server.await_explained (Server.submit_explained server ~principal:"crm-app" q_contacts) in
  (match (d, e) with
  | Monitor.Answered, Some e ->
    check_string "decision word" "answered" e.Explain.decision;
    check_bool "label encoded" true (e.Explain.label <> "-");
    check_bool "label width positive" true (e.Explain.label_width >= 1);
    check_int "one witness row per label atom" e.Explain.label_width
      (List.length e.Explain.atoms);
    check_bool "witnesses name covering views" true
      (List.exists (fun (_, views) -> views <> []) e.Explain.atoms);
    check_bool "a real labeler tier is named" true (List.mem e.Explain.tier tiers);
    check_bool "cache level reported" true (e.Explain.cache_level <> "");
    check_int "both partitions reported" 2 (List.length e.Explain.partitions);
    (* Answering contacts kills crm-app's meetings partition: the mask
       delta is the observable bite of the paper's monitor semantics. *)
    check_bool "the non-covering partition dies" true (Explain.mask_delta e > 0);
    check_bool "no refusal cause on an answer" true (e.Explain.cause = []);
    let rendered = Format.asprintf "%a" Explain.pp e in
    check_bool "pp names the tier" true
      (String.length rendered > 0
      &&
      let re = e.Explain.tier in
      let rec contains i =
        i + String.length re <= String.length rendered
        && (String.sub rendered i (String.length re) = re || contains (i + 1))
      in
      contains 0)
  | _ -> Alcotest.fail "expected an answered decision with provenance");
  (* The meetings partition is now dead: the follow-up refusal's partition
     report says so. *)
  let e = expect_refused_explained "post-kill policy" server ~principal:"crm-app" q_meetings in
  check_bool "partition report shows a dead partition" true
    (List.exists (fun (_, alive, _) -> not alive) e.Explain.partitions);
  Server.stop server

let test_cache_hit_tier () =
  let server = make_server ~domains:1 ~cache_capacity:64 () in
  Server.start server;
  let _ = Server.await_explained (Server.submit_explained server ~principal:"hr-app" q_contacts) in
  let d, e = Server.await_explained (Server.submit_explained server ~principal:"hr-app" q_contacts) in
  (match (d, e) with
  | Monitor.Answered, Some e ->
    check_string "cache hit served the label" "exact" e.Explain.cache_level
  | _ -> Alcotest.fail "expected a cached answer with provenance");
  Server.stop server

(* A query over a relation no view mentions labels to ⊤ without any atom
   escalating: it must report the lowest produced tier, with the cache off
   and on a cache miss, and the round must decide it normally (a tier with
   no histogram slot would fail the round closed). *)
let test_viewless_tier () =
  let q = Cq.Parser.query_exn "Q(x) :- NoSuchRelation(x)" in
  let produced = List.map Compile.Artifact.tier_name Compile.Artifact.tiers in
  List.iter
    (fun cache_capacity ->
      let server = make_server ~domains:1 ~cache_capacity () in
      Server.start server;
      (match Server.await_explained (Server.submit_explained server ~principal:"crm-app" q) with
      | Monitor.Refused (Guard.Fault _), _ -> Alcotest.fail "view-less query failed closed"
      | _, Some e ->
        check_bool "a produced tier" true (List.mem e.Explain.tier produced);
        check_string "the lowest produced tier"
          (Compile.Artifact.tier_name Compile.Artifact.Tier_atom_memo)
          e.Explain.tier
      | _, None -> Alcotest.fail "expected provenance");
      Server.stop server)
    [ 0; 64 ]

(* --- wire: explain over a socket, codec round-trip ---------------------- *)

let test_wire_explain () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      Fun.protect
        ~finally:(fun () ->
          Net.Listener.stop listener;
          Server.stop server)
        (fun () ->
          Net.Client.with_connection addr (fun c ->
              (* In-process twin for the expected decisions. *)
              let twin = make_server () in
              Server.start twin;
              List.iter
                (fun (principal, q) ->
                  let expected = Server.submit_sync twin ~principal q in
                  match Net.Client.explain c ~principal q with
                  | Ok (d, Some e) ->
                    Alcotest.check decision_t "wire decision = in-process" expected d;
                    (* The codec is an exact inverse: re-encode and decode. *)
                    (match Codec.explain_of_json (Codec.explain_to_json e) with
                    | Ok e' -> check_bool "explain JSON round-trips" true (e = e')
                    | Error err -> Alcotest.failf "explain_of_json: %s" err)
                  | Ok (_, None) -> Alcotest.fail "wire explanation missing"
                  | Error err -> Alcotest.failf "wire error: %s" (Net.Errors.to_string err))
                history;
              Server.stop twin)))

(* --- cross-process trace stitching -------------------------------------- *)

let test_stitched_trace () =
  with_tmp_base (fun jbase ->
      with_tmp_base (fun mbase ->
          with_socket (fun addr ->
              (* Primary: 1 shard on track 0, the listener (and the
                 replication source) on track 1. *)
              let primary_tr = Trace.create ~tracks:2 ~sample:1 () in
              let server = make_server ~domains:1 ~journal:jbase ~trace:primary_tr () in
              Server.start server;
              let source = Source.create ~trace:(primary_tr, 1) ~server ~journal:jbase () in
              let listener =
                Net.Listener.create ~trace:(primary_tr, 1)
                  ~extend:(Source.handler source) ~server addr
              in
              let client_tr = Trace.create ~tracks:1 ~sample:1 () in
              let standby_tr = Trace.create ~tracks:1 ~sample:1 () in
              Fun.protect
                ~finally:(fun () ->
                  Net.Listener.stop listener;
                  Server.stop server)
                (fun () ->
                  (* One pipelined wire batch under one client span. *)
                  let scope =
                    Trace.query_begin client_tr ~track:0 ~name:"client"
                      ~principal:"crm-app" ()
                  in
                  let ctx = Trace.scope_ids scope in
                  let tid = fst ctx in
                  Net.Client.with_connection addr (fun c ->
                      let results =
                        Net.Client.query_batch ~ctx c
                          [ ("crm-app", q_contacts); ("calendar-app", q_slots) ]
                      in
                      check_int "both pipelined queries decided" 2 (List.length results));
                  Trace.query_end scope ~outcome:"answered";
                  Server.drain server;
                  (* Standby pulls the committed tail; its replicate span
                     carries the primary's serving span id. *)
                  let follower =
                    match
                      Follower.create ~trace:standby_tr ~journal:mbase ~shards:1 policy
                    with
                    | Ok f -> f
                    | Error e -> Alcotest.failf "follower: %s" e
                  in
                  Net.Client.with_connection addr (fun c ->
                      ignore (Follower.poll_once follower c));
                  (* The client's trace id shows up in the client recorder
                     (its own root) and at least twice in the primary's (the
                     listener's net span per pipelined query, the shard's
                     serving span per query). *)
                  let with_tid tr =
                    List.filter (fun (s : Trace.span) -> s.Trace.trace_id = tid)
                      (Trace.spans tr)
                  in
                  check_bool "client root in the client recorder" true
                    (with_tid client_tr <> []);
                  let primary_hits = with_tid primary_tr in
                  check_bool "listener and shard joined the client trace" true
                    (List.length (List.filter (fun (s : Trace.span) -> s.Trace.parent = None) primary_hits) >= 3);
                  let names = List.map (fun (s : Trace.span) -> s.Trace.name) primary_hits in
                  List.iter
                    (fun n ->
                      check_bool ("a " ^ n ^ " span joined the trace") true
                        (List.mem n names))
                    [ "net"; "query" ];
                  (* Cross-process roots carry the wire parent as an
                     attribute (never a dangling local parent id). *)
                  check_bool "wire parent recorded as an attribute" true
                    (List.exists
                       (fun (s : Trace.span) ->
                         List.mem_assoc "parent_span" s.Trace.attrs)
                       primary_hits);
                  (* The standby recorded its pull, attributable to the
                     primary's serving span. *)
                  let standby_spans = Trace.spans standby_tr in
                  check_bool "standby replicate span recorded" true
                    (List.exists
                       (fun (s : Trace.span) -> s.Trace.name = "replicate")
                       standby_spans);
                  check_bool "replicate span names the primary span" true
                    (List.exists
                       (fun (s : Trace.span) ->
                         List.mem_assoc "primary_span" s.Trace.attrs)
                       standby_spans);
                  (* And the three recorders merge into one well-formed
                     Chrome document with all three processes present. *)
                  let merged =
                    Obs.Chrome.export_merged
                      [
                        ("client", client_tr);
                        ("primary", primary_tr);
                        ("standby", standby_tr);
                      ]
                  in
                  match Json.parse merged with
                  | Error e -> Alcotest.failf "merged export invalid: %s" e
                  | Ok doc -> (
                    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
                    | None -> Alcotest.fail "no traceEvents"
                    | Some events ->
                      let total =
                        List.length (Trace.spans client_tr)
                        + List.length (Trace.spans primary_tr)
                        + List.length standby_spans
                      in
                      check_bool "every span exported" true
                        (List.length events >= total))))))

(* --- satellite: group-commit and pipelined-window size histograms ------- *)

let test_size_histograms () =
  (* Group commit: every covering flush lands one batch-size sample. *)
  with_tmp_base (fun base ->
      let server = make_server ~domains:1 ~journal:base ~group_commit:true () in
      Server.start server;
      let tickets =
        List.map (fun (principal, q) -> Server.submit server ~principal q) history
      in
      List.iter (fun t -> ignore (Server.await t)) tickets;
      Server.drain server;
      Server.stop server;
      let h = Metrics.size_histogram (Server.metrics server) Metrics.Group_batch in
      check_bool "group-commit batch sizes observed" true (h.Metrics.count > 0);
      let text = Metrics.to_prometheus (Server.metrics server) in
      check_bool "batch-size histogram exposed to Prometheus" true
        (let needle = "group_commit_batch_size" in
         let rec contains i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle || contains (i + 1))
         in
         contains 0));
  (* Pipelined window: a batch of wire frames decodes as one (or few)
     connection wakeups, each landing a window-depth sample. *)
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      Fun.protect
        ~finally:(fun () ->
          Net.Listener.stop listener;
          Server.stop server)
        (fun () ->
          Net.Client.with_connection addr (fun c ->
              ignore
                (Net.Client.query_batch c
                   (List.map (fun (p, q) -> (p, q)) history)));
          let h =
            Metrics.size_histogram (Server.metrics server) Metrics.Pipeline_window
          in
          check_bool "pipeline window depths observed" true (h.Metrics.count > 0)))

(* --- offline audit ledger agrees with live stats ------------------------ *)

let test_ledger_matches_live () =
  with_tmp_base (fun base ->
      let server = make_server ~domains:1 ~journal:base () in
      Server.start server;
      let expected = Hashtbl.create 8 in
      List.iter
        (fun (principal, q) ->
          let d = Server.submit_sync server ~principal q in
          let a, r = try Hashtbl.find expected principal with Not_found -> (0, 0) in
          Hashtbl.replace expected principal
            (match d with
            | Monitor.Answered -> (a + 1, r)
            | Monitor.Refused _ -> (a, r + 1)))
        history;
      Server.drain server;
      Server.stop server;
      (* The ledger path: a fresh journal-less service replays the journal
         offline, observing each record. *)
      let service =
        match Policyfile.load policy with
        | Ok s -> s
        | Error e -> Alcotest.failf "load: %s" e
      in
      let tally = Hashtbl.create 8 in
      let on_record ~principal ~label:_ ~decision =
        let a, r = try Hashtbl.find tally principal with Not_found -> (0, 0) in
        Hashtbl.replace tally principal
          (if decision = "answered" then (a + 1, r) else (a, r + 1))
      in
      (match Service.recover ~on_record service ~journal:(base ^ ".shard0") with
      | Ok rec_ -> check_int "every decision replayed" (List.length history) rec_.Service.applied
      | Error e -> Alcotest.failf "recover: %s" (Service.recovery_error_to_string e));
      Service.close service;
      Hashtbl.iter
        (fun principal (a, r) ->
          let a', r' = try Hashtbl.find tally principal with Not_found -> (0, 0) in
          check_int (principal ^ " answered") a a';
          check_int (principal ^ " refused") r r')
        expected)

let () =
  Alcotest.run "explain"
    [
      ( "differential",
        [
          Oracle.slice "per-decision commits"
            ~pin:(fun c -> Oracle.fixed_batches { c with explain = true; group_commit = false })
            ~pin_twin:(fun c -> { c with explain = false });
          Oracle.slice "group commit"
            ~pin:(fun c -> Oracle.fixed_batches { c with explain = true; group_commit = true })
            ~pin_twin:(fun c -> { c with explain = false });
          Alcotest.test_case "fault matrix" `Quick test_differential_fault_matrix;
        ] );
      ( "taxonomy",
        [
          Alcotest.test_case "cause chain total" `Quick test_cause_chain_total;
          Alcotest.test_case "refusal variants end to end" `Quick
            test_refusal_variants_end_to_end;
        ] );
      ( "content",
        [
          Alcotest.test_case "answered provenance" `Quick test_answered_content;
          Alcotest.test_case "cache-hit tier" `Quick test_cache_hit_tier;
          Alcotest.test_case "view-less query tier" `Quick test_viewless_tier;
        ] );
      ( "wire",
        [
          Alcotest.test_case "explain over a socket" `Quick test_wire_explain;
          Alcotest.test_case "stitched trace" `Quick test_stitched_trace;
        ] );
      ( "observability",
        [ Alcotest.test_case "size histograms" `Quick test_size_histograms ] );
      ( "ledger",
        [ Alcotest.test_case "matches live stats" `Quick test_ledger_matches_live ] );
    ]
