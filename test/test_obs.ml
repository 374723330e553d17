(* Tests for the observability layer (lib/obs + the Metrics/Server hooks):
   exporter well-formedness (JSON round-trips, Prometheus bucket
   monotonicity, Chrome span nesting), the head/tail sampling guarantees
   (refused and slow queries always traced), the Wait histogram, the
   per-shard Gc gauges, and the huge-sample regression for
   [Metrics.record]. Its own executable: it traces a real served workload
   (worker domains) and arms the global fault hooks (single-domain shard
   harness), neither of which belongs in the main suite's process. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard
module Faults = Disclosure.Faults
module Mclock = Disclosure.Mclock
module Metrics = Server.Metrics
module Trace = Obs.Trace
module Json = Obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* calendar-app may see V2 only: [q_refused] (full Meetings rows) is
   refused by policy, [q_answered] (Meetings keys) is answered. *)
let q_answered = q_slots
let q_refused = q_meetings

let make_server ?trace ?domains ?cache_capacity () =
  Support.make_server ?trace ~config:(config ?domains ?cache_capacity ()) ()

(* A small mixed workload: answers, policy refusals, cache hits. *)
let run_workload server =
  for _ = 1 to 20 do
    ignore (Server.submit_sync server ~principal:"calendar-app" q_answered);
    ignore (Server.submit_sync server ~principal:"calendar-app" q_refused);
    ignore (Server.submit_sync server ~principal:"crm-app" q_contacts)
  done;
  Server.drain server

(* A single-threaded shard harness: [Shard.process] on the calling domain,
   so the global fault hooks are safe and every decision is deterministic. *)
let shard_harness ?trace () =
  let metrics = Metrics.create () in
  let shard =
    Server.Shard.create ~index:0 ?trace ~mailbox_capacity:16 ~cache_capacity:0 ~metrics
      (pipeline ())
  in
  Service.register (Server.Shard.service shard) ~principal:"calendar-app"
    ~partitions:[ ("default", [ v2 ]) ];
  (shard, metrics)

let process_one shard ~principal q =
  let ticket = Server.Ivar.create () in
  Server.Shard.process shard
    (Server.Shard.Query
       { principal; query = q; ticket; enqueued_ns = Mclock.now_ns (); ctx = None });
  Server.Ivar.read ticket

(* --- satellite: huge-sample regression for Metrics.record ------------- *)

let test_metrics_huge_sample () =
  let m = Metrics.create () in
  (* 1e7 s = 1e16 ns, beyond the last power-of-two bucket edge: must clamp
     into the final bucket, not crash on an out-of-bounds index. *)
  Metrics.record m Metrics.Label 1.0e7;
  Metrics.record m Metrics.Label 4.0e9;
  let h = Metrics.histogram m Metrics.Label in
  check_int "both samples recorded" 2 h.Metrics.count;
  let last = Array.length h.Metrics.buckets - 1 in
  check_int "clamped into the last bucket" 2 h.Metrics.buckets.(last);
  check_bool "percentile still answers" true (Metrics.percentile_ns h 0.99 > 0)

(* --- exporter well-formedness ----------------------------------------- *)

let parse_ok what s =
  match Json.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" what e

let test_metrics_json_round_trip () =
  let server = make_server () in
  Server.start server;
  run_workload server;
  Server.stop server;
  let m = Server.metrics server in
  let doc = parse_ok "Metrics.to_json" (Json.to_string (Metrics.to_json m)) in
  List.iter
    (fun c ->
      let name = Metrics.counter_name c in
      match Option.bind (Json.member name doc) Json.to_float with
      | Some v -> check_int ("counter " ^ name) (Metrics.count m c) (int_of_float v)
      | None -> Alcotest.failf "counter %s missing from to_json" name)
    Metrics.counters;
  let stages =
    match Json.member "stages" doc with
    | Some s -> s
    | None -> Alcotest.fail "no stages object"
  in
  List.iter
    (fun s ->
      let name = Metrics.stage_name s in
      if Json.member name stages = None then
        Alcotest.failf "stage %s missing from to_json" name)
    Metrics.stages;
  match Option.map Json.to_list (Json.member "shards" doc) with
  | Some (Some shards) ->
    check_int "one gauge object per shard" (Metrics.shard_count m) (List.length shards)
  | _ -> Alcotest.fail "no shards array"

let test_stats_json_round_trip () =
  let server = make_server () in
  Server.start server;
  run_workload server;
  Server.stop server;
  let doc = parse_ok "Server.stats_json" (Json.to_string (Server.stats_json server)) in
  let num name =
    match Option.bind (Json.member name doc) Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "stats_json: %s missing" name
  in
  check_bool "started_at is a recent epoch timestamp" true (num "started_at" > 1.6e9);
  check_bool "uptime_s is non-negative" true (num "uptime_s" >= 0.0);
  check_int "shard count" (Server.config server).Server.domains
    (int_of_float (num "shards"));
  check_int "principal count" (Array.length principals) (int_of_float (num "principals"));
  check_bool "metrics document embedded" true (Json.member "metrics" doc <> None)

(* Parse the Prometheus text exposition into (name, labels-part, value)
   triples; enough structure to check monotonicity without a client lib. *)
let prom_samples text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             let name_labels = String.sub line 0 i in
             let value =
               float_of_string (String.sub line (i + 1) (String.length line - i - 1))
             in
             Some (name_labels, value))

let test_prometheus_well_formed () =
  let server = make_server () in
  Server.start server;
  run_workload server;
  Server.stop server;
  let text = Metrics.to_prometheus (Server.metrics server) in
  let samples = prom_samples text in
  let value name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "missing sample %s" name
  in
  (* Every counter is exposed. *)
  List.iter
    (fun c ->
      ignore (value (Printf.sprintf "disclosure_%s_total" (Metrics.counter_name c))))
    Metrics.counters;
  check_bool "submitted > 0" true (value "disclosure_submitted_total" > 0.0);
  (* Every stage histogram: buckets cumulative (monotone nondecreasing),
     +Inf bucket equals _count, _sum present. *)
  List.iter
    (fun s ->
      let stage = Metrics.stage_name s in
      let prefix =
        Printf.sprintf "disclosure_stage_duration_seconds_bucket{stage=\"%s\"" stage
      in
      let buckets =
        List.filter (fun (n, _) -> String.starts_with ~prefix n) samples
        |> List.map snd
      in
      check_bool (stage ^ " has buckets") true (buckets <> []);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      check_bool (stage ^ " buckets cumulative") true (monotone buckets);
      let count =
        value
          (Printf.sprintf "disclosure_stage_duration_seconds_count{stage=\"%s\"}" stage)
      in
      ignore
        (value
           (Printf.sprintf "disclosure_stage_duration_seconds_sum{stage=\"%s\"}" stage));
      match List.rev buckets with
      | inf :: _ -> check_bool (stage ^ " +Inf bucket = _count") true (inf = count)
      | [] -> ())
    Metrics.stages;
  (* Gc gauges appear for shard 0 (the drain barrier resamples them). *)
  ignore (value "disclosure_shard_gc_minor_collections{shard=\"0\"}")

(* --- tiered-store gauges ------------------------------------------------ *)

(* A server with a resident budget populates the store gauges (sampled at
   the drain barrier), records fault-ins under the [fault_in] stage, sums
   the store totals into [stats_json], and exposes every store gauge in the
   Prometheus text. *)
let test_store_gauges_populate () =
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.domains = 1;
          cache_capacity = 0;
          resident = Some (Store.Principals 2);
        }
      (pipeline ())
  in
  for i = 0 to 5 do
    Server.register server
      ~principal:(Printf.sprintf "app%d" i)
      ~partitions:[ ("default", [ v2 ]) ]
  done;
  Server.start server;
  for _round = 1 to 5 do
    for i = 0 to 5 do
      ignore
        (Server.submit_sync server ~principal:(Printf.sprintf "app%d" i) q_answered)
    done
  done;
  Server.drain server;
  (* The store totals read through the live shards, so sample them (and the
     stats document that embeds them) before stop closes the stores. *)
  (match Server.store_stats server with
  | None -> Alcotest.fail "store_stats must be Some on a tiered server"
  | Some s ->
    check_bool "evictions happened" true (s.Store.stat_evictions > 0);
    check_bool "fault-ins happened" true (s.Store.stat_fault_ins > 0);
    check_bool "resident within budget" true (s.Store.stat_resident <= 2));
  let stats_doc = parse_ok "Server.stats_json" (Json.to_string (Server.stats_json server)) in
  Server.stop server;
  let m = Server.metrics server in
  check_bool "fault_in stage recorded samples" true
    ((Metrics.histogram m Metrics.Fault_in).Metrics.count > 0);
  let samples = prom_samples (Metrics.to_prometheus m) in
  let value name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "missing sample %s" name
  in
  List.iter
    (fun g ->
      ignore
        (value (Printf.sprintf "disclosure_shard_%s{shard=\"0\"}" (Metrics.gauge_name g))))
    Metrics.gauges;
  check_bool "prometheus fault_ins populated" true
    (value "disclosure_shard_fault_ins{shard=\"0\"}" > 0.0);
  check_bool "prometheus resident within budget" true
    (value "disclosure_shard_resident_principals{shard=\"0\"}" <= 2.0);
  match Json.member "store" stats_doc with
  | None -> Alcotest.fail "stats_json must embed the store block"
  | Some store_doc -> (
    match Option.bind (Json.member "fault_ins" store_doc) Json.to_float with
    | Some v -> check_bool "stats_json store.fault_ins populated" true (v > 0.0)
    | None -> Alcotest.fail "store block missing fault_ins")

(* --- the registry reaches every exporter -------------------------------- *)

(* Does some line of [text] start (after indentation) with [word] followed by
   a space? The report prints one row per registered number that way. *)
let has_row text word =
  List.exists
    (fun line ->
      String.starts_with ~prefix:(word ^ " ") (String.trim line ^ " ")
      && String.length (String.trim line) > String.length word)
    (String.split_on_char '\n' text)

let test_registry_parity () =
  let server = make_server ~domains:2 () in
  Server.start server;
  run_workload server;
  let samples = prom_samples (Server.prometheus server) in
  let stats = Server.stats_json server in
  let report = Format.asprintf "%a" Metrics.pp_stats stats in
  Server.stop server;
  let metrics =
    match Json.member "metrics" (parse_ok "stats" (Json.to_string stats)) with
    | Some m -> m
    | None -> Alcotest.fail "stats document embeds no metrics"
  in
  let in_prom name =
    if not (List.mem_assoc name samples) then Alcotest.failf "prometheus lacks %s" name
  in
  let in_json what obj name =
    if Json.member name obj = None then Alcotest.failf "%s JSON lacks %s" what name
  in
  let in_report name =
    if not (has_row report name) then Alcotest.failf "stats report lacks a %s row" name
  in
  let family key =
    match Json.member key metrics with
    | Some obj -> obj
    | None -> Alcotest.failf "metrics JSON lacks %s" key
  in
  List.iter
    (fun c ->
      let name = Metrics.counter_name c in
      in_json "metrics" metrics name;
      in_prom (Printf.sprintf "disclosure_%s_total" name);
      in_report name)
    Metrics.counters;
  List.iter
    (fun s ->
      let name = Metrics.stage_name s in
      in_json "stages" (family "stages") name;
      in_prom (Printf.sprintf "disclosure_stage_duration_seconds_count{stage=\"%s\"}" name);
      in_report name)
    Metrics.stages;
  List.iter
    (fun tier ->
      let name = Metrics.tier_name tier in
      in_json "tiers" (family "tiers") name;
      in_prom (Printf.sprintf "disclosure_tier_duration_seconds_count{tier=\"%s\"}" name);
      in_prom (Printf.sprintf "disclosure_tier_decisions_total{tier=\"%s\"}" name);
      in_report name)
    Metrics.tiers;
  List.iter
    (fun size ->
      let name = Metrics.size_name size in
      in_json "sizes" (family "sizes") name;
      in_prom (Printf.sprintf "disclosure_%s_count" name);
      in_report name)
    Metrics.sizes;
  let shards =
    match Option.bind (Json.member "shards" metrics) Json.to_list with
    | Some shards -> shards
    | None -> Alcotest.fail "metrics JSON lacks the shards array"
  in
  check_int "one gauge object per shard" 2 (List.length shards);
  List.iter
    (fun g ->
      let name = Metrics.gauge_name g in
      List.iteri
        (fun shard obj ->
          in_json (Printf.sprintf "shard %d" shard) obj name;
          in_prom (Printf.sprintf "disclosure_shard_%s{shard=\"%d\"}" name shard))
        shards;
      in_report name)
    Metrics.gauges

(* Regression: a reload installs fresh label caches, and the stats
   document's cache section used to read their counters — restarting at 0
   while [metrics.cache_*] kept counting. *)
let test_cache_section_survives_reload () =
  let server = make_server () in
  Server.start server;
  run_workload server;
  (match Server.reload server policy with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reload: %s" e);
  run_workload server;
  let doc = parse_ok "Server.stats_json" (Json.to_string (Server.stats_json server)) in
  Server.stop server;
  let at path =
    match
      List.fold_left (fun obj key -> Option.bind obj (Json.member key)) (Some doc) path
      |> Fun.flip Option.bind Json.to_float
    with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "stats document lacks %s" (String.concat "." path)
  in
  check_bool "hits before and after the reload" true (at [ "metrics"; "cache_hits" ] > 0);
  List.iter
    (fun (field, counter) ->
      check_int ("cache." ^ field) (at [ "metrics"; counter ]) (at [ "cache"; field ]))
    [ ("hits", "cache_hits"); ("misses", "cache_misses"); ("evictions", "cache_evictions") ]

(* --- tracing a served workload ---------------------------------------- *)

let test_chrome_nesting () =
  let trace = Trace.create ~tracks:2 ~sample:1 () in
  let server = make_server ~trace ~domains:2 () in
  Server.start server;
  run_workload server;
  Server.stop server;
  let spans = Trace.spans trace in
  let roots = Trace.roots trace in
  check_bool "spans recorded" true (spans <> []);
  check_bool "roots recorded" true (roots <> []);
  List.iter
    (fun (s : Trace.span) ->
      check_bool "duration never negative" true (s.Trace.dur_ns >= 0))
    spans;
  (* Every child lies fully inside its root's window — the containment that
     makes Chrome's viewer render the id hierarchy. *)
  let root_of id = List.find_opt (fun (r : Trace.span) -> r.Trace.span_id = id) roots in
  let children = List.filter (fun (s : Trace.span) -> s.Trace.parent <> None) spans in
  check_bool "children recorded" true (children <> []);
  List.iter
    (fun (c : Trace.span) ->
      match Option.bind c.Trace.parent root_of with
      | None -> () (* parent already overwritten in the bounded ring *)
      | Some r ->
        let open Int64 in
        let c_end = add c.Trace.start_ns (of_int c.Trace.dur_ns) in
        let r_end = add r.Trace.start_ns (of_int r.Trace.dur_ns) in
        check_bool "child starts inside root" true (c.Trace.start_ns >= r.Trace.start_ns);
        check_bool "child ends inside root" true (c_end <= r_end))
    children;
  (* Each sampled query carries one span per pipeline stage it executed:
     wait + cache + decide + journal always; label on misses. *)
  let stage_names = List.map (fun (s : Trace.span) -> s.Trace.name) children in
  List.iter
    (fun stage ->
      check_bool ("a " ^ stage ^ " span exists") true (List.mem stage stage_names))
    [ "wait"; "cache"; "decide"; "journal"; "label" ];
  (* The export is valid JSON with one complete event per span plus one
     thread-name metadata event per track. *)
  let doc = parse_ok "Chrome.export" (Obs.Chrome.export trace) in
  match Option.bind (Json.member "traceEvents" doc) Json.to_list with
  | None -> Alcotest.fail "no traceEvents array"
  | Some events ->
    check_int "one event per span plus per-track metadata"
      (List.length spans + Trace.tracks trace)
      (List.length events);
    List.iter
      (fun e ->
        match Option.bind (Json.member "dur" e) Json.to_float with
        | Some d -> check_bool "exported dur non-negative" true (d >= 0.0)
        | None -> ())
      events

let test_wait_histogram () =
  let server = make_server () in
  Server.start server;
  run_workload server;
  Server.stop server;
  let h = Metrics.histogram (Server.metrics server) Metrics.Wait in
  check_bool "wait observations recorded" true (h.Metrics.count > 0)

(* --- sampling guarantees ---------------------------------------------- *)

let test_tail_sampling_refusals () =
  (* Head sampling off entirely: only tail retention can keep a scope. *)
  let trace = Trace.create ~tracks:1 ~sample:0 () in
  let shard, _metrics = shard_harness ~trace () in
  for _ = 1 to 8 do
    (match process_one shard ~principal:"calendar-app" q_answered with
    | Monitor.Answered -> ()
    | Monitor.Refused _ -> Alcotest.fail "expected an answer");
    match process_one shard ~principal:"calendar-app" q_refused with
    | Monitor.Refused _ -> ()
    | Monitor.Answered -> Alcotest.fail "expected a policy refusal"
  done;
  check_int "only the refusals retained" 8 (Trace.retained trace);
  check_int "answered queries dropped" 8 (Trace.dropped trace);
  List.iter
    (fun (r : Trace.span) ->
      check_bool "retained root is a refusal" true
        (match List.assoc_opt "outcome" r.Trace.attrs with
        | Some o -> String.starts_with ~prefix:"refused" o
        | None -> false))
    (Trace.roots trace);
  check_bool "slow log lists the refusals" true
    (List.length (Trace.slow_log trace) = 8)

let test_injected_fault_always_traced () =
  let trace = Trace.create ~tracks:1 ~sample:0 () in
  let shard, _metrics = shard_harness ~trace () in
  (match
     Faults.with_fault Faults.Decide (Faults.Raise "boom") (fun () ->
         process_one shard ~principal:"calendar-app" q_answered)
   with
  | Monitor.Refused (Guard.Fault _) -> ()
  | _ -> Alcotest.fail "expected a fault refusal");
  check_int "fault refusal retained despite sample=0" 1 (Trace.retained trace);
  match Trace.roots trace with
  | [ r ] ->
    check_bool "outcome tags the fault" true
      (match List.assoc_opt "outcome" r.Trace.attrs with
      | Some o -> String.starts_with ~prefix:"refused:fault" o
      | None -> false)
  | _ -> Alcotest.fail "expected exactly one root"

let test_slow_queries_always_traced () =
  (* Zero threshold: everything is slow, so everything is tail-retained
     even with head sampling off. *)
  let trace = Trace.create ~tracks:1 ~sample:0 ~slow_ms:0.0 () in
  let shard, _metrics = shard_harness ~trace () in
  for _ = 1 to 4 do
    ignore (process_one shard ~principal:"calendar-app" q_answered)
  done;
  check_int "every query retained as slow" 4 (Trace.retained trace);
  check_int "nothing dropped" 0 (Trace.dropped trace);
  List.iter
    (fun (r : Trace.span) ->
      check_bool "root is flagged slow" true
        (List.assoc_opt "slow" r.Trace.attrs = Some "true"))
    (Trace.roots trace);
  let log = Format.asprintf "%a" Trace.pp_slow_log trace in
  check_bool "pp_slow_log prints entries" true (String.length log > 0)

let test_head_sampling_rate () =
  let trace = Trace.create ~tracks:1 ~sample:16 () in
  let shard, _metrics = shard_harness ~trace () in
  for _ = 1 to 64 do
    ignore (process_one shard ~principal:"calendar-app" q_answered)
  done;
  check_int "1-in-16 head sampling" 4 (Trace.retained trace);
  check_int "the rest dropped" 60 (Trace.dropped trace)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "huge-sample clamp" `Quick test_metrics_huge_sample;
          Alcotest.test_case "wait histogram" `Quick test_wait_histogram;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "metrics JSON round-trip" `Quick
            test_metrics_json_round_trip;
          Alcotest.test_case "stats JSON round-trip" `Quick test_stats_json_round_trip;
          Alcotest.test_case "prometheus well-formed" `Quick
            test_prometheus_well_formed;
          Alcotest.test_case "tiered-store gauges populate" `Quick
            test_store_gauges_populate;
          Alcotest.test_case "registry parity" `Quick test_registry_parity;
          Alcotest.test_case "cache section survives reload" `Quick
            test_cache_section_survives_reload;
          Alcotest.test_case "chrome nesting" `Quick test_chrome_nesting;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "tail keeps refusals" `Quick test_tail_sampling_refusals;
          Alcotest.test_case "injected fault traced" `Quick
            test_injected_fault_always_traced;
          Alcotest.test_case "slow always traced" `Quick
            test_slow_queries_always_traced;
          Alcotest.test_case "head rate" `Quick test_head_sampling_rate;
        ] );
    ]
