(* Tests for the sharded multicore serving layer (lib/server). A separate
   executable from the main suite: these tests spawn domains, and the domain
   count is driven by the SERVER_DOMAINS environment variable so the CI
   alias can sweep 1, 2, and 4 (default 2).

   The headline property is sequential equivalence: for any history, every
   principal's decision sequence through the server is identical to replaying
   the same queries through a single-threaded Disclosure.Service — sharding,
   mailboxes, and the label cache must be invisible in the decisions. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Pipeline = Disclosure.Pipeline
module Guard = Disclosure.Guard
module Sview = Disclosure.Sview
module Journal = Disclosure.Journal

let domains =
  match Sys.getenv_opt "SERVER_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ -> failwith ("bad SERVER_DOMAINS: " ^ s))
  | None -> 2

let pq = Cq.Parser.query_exn

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v1 = Sview.of_string "V1(x, y) :- Meetings(x, y)"
let v2 = Sview.of_string "V2(x) :- Meetings(x, y)"
let v3 = Sview.of_string "V3(x, y, z) :- Contacts(x, y, z)"

let pipeline () = Pipeline.create [ v1; v2; v3 ]

let principals = [| "calendar-app"; "crm-app"; "hr-app"; "mail-app"; "todo-app" |]

let register_all register =
  register ~principal:"calendar-app" ~partitions:[ ("default", [ v2 ]) ];
  register ~principal:"crm-app"
    ~partitions:[ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
  register ~principal:"hr-app" ~partitions:[ ("default", [ v3 ]) ];
  register ~principal:"mail-app" ~partitions:[ ("default", [ v1; v3 ]) ];
  register ~principal:"todo-app" ~partitions:[ ("default", [ v2; v3 ]) ]

let make_server ?(domains = domains) ?journal ?(cache_capacity = 256) ?(mailbox_capacity = 1024)
    ?(checkpoint_every = 0) ?(segment_bytes = 0) ?(group_commit = false) () =
  let server =
    Server.create ?journal
      ~config:
        { Server.domains; mailbox_capacity; cache_capacity; checkpoint_every;
          segment_bytes; drain = Server.default_config.Server.drain; group_commit;
          resident = None }
      (pipeline ())
  in
  register_all (fun ~principal ~partitions -> Server.register server ~principal ~partitions);
  server

let make_service ?journal () =
  let service = Service.create ?journal (pipeline ()) in
  register_all (fun ~principal ~partitions ->
      Service.register service ~principal ~partitions);
  service

let queries =
  [|
    pq "Q(x) :- Meetings(x, y)";
    pq "Q(a) :- Meetings(a, b)";
    pq "Q(x, y) :- Meetings(x, y)";
    pq "Q(y) :- Meetings(x, y)";
    pq "Q(x, y, z) :- Contacts(x, y, z)";
    pq "Q(x) :- Contacts(x, y, z)";
    pq "Q(x) :- Meetings(x, y), Contacts(y, e, p)";
    pq "Q(x) :- Meetings(x, y), Meetings(x, z)";
    pq "Q() :- Unknown(u)";
  |]

let random_history rng ~steps =
  List.init steps (fun _ ->
      ( principals.(Random.State.int rng (Array.length principals)),
        queries.(Random.State.int rng (Array.length queries)) ))

(* Per-principal decision sequences, in submission order. *)
let group_by_principal pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (principal, decision) ->
      let prev = Option.value (Hashtbl.find_opt tbl principal) ~default:[] in
      Hashtbl.replace tbl principal (decision :: prev))
    pairs;
  Array.to_list principals
  |> List.map (fun p ->
         (p, List.rev (Option.value (Hashtbl.find_opt tbl p) ~default:[])))

let sequences_equal a b =
  List.for_all2
    (fun (p, ds) (p', ds') ->
      String.equal p p'
      && List.length ds = List.length ds'
      && List.for_all2 Monitor.decision_equal ds ds')
    a b

(* --- sequential equivalence ------------------------------------------- *)

let run_history_on_server server history =
  let tickets =
    List.map
      (fun (principal, q) -> (principal, Server.submit server ~principal q))
      history
  in
  List.map (fun (principal, ticket) -> (principal, Server.await ticket)) tickets

let run_history_on_service service history =
  List.map
    (fun (principal, q) -> (principal, Service.submit service ~principal q))
    history

let test_sequential_equivalence () =
  let rng = Random.State.make [| 0xACE |] in
  for _history = 1 to 120 do
    let history = random_history rng ~steps:(1 + Random.State.int rng 20) in
    let server = make_server () in
    Server.start server;
    let server_decisions = run_history_on_server server history in
    Server.drain server;
    let server_snapshot = Server.snapshot server in
    Server.stop server;
    let service = make_service () in
    let service_decisions = run_history_on_service service history in
    check_bool "per-principal decision sequences match single-threaded replay" true
      (sequences_equal
         (group_by_principal server_decisions)
         (group_by_principal service_decisions));
    check_bool "final monitor states match single-threaded replay" true
      (Service.snapshot service = server_snapshot)
  done

(* The same equivalence with the cache disabled: isolates sharding/mailbox
   effects from cache effects. *)
let test_sequential_equivalence_uncached () =
  let rng = Random.State.make [| 0xBEE |] in
  for _history = 1 to 40 do
    let history = random_history rng ~steps:(1 + Random.State.int rng 20) in
    let server = make_server ~cache_capacity:0 () in
    Server.start server;
    let decisions = run_history_on_server server history in
    Server.drain server;
    Server.stop server;
    let service = make_service () in
    let expected = run_history_on_service service history in
    check_bool "uncached decision sequences match" true
      (sequences_equal (group_by_principal decisions) (group_by_principal expected))
  done

(* A tiny LRU cache forces constant eviction; decisions must not change. *)
let test_equivalence_under_eviction () =
  let rng = Random.State.make [| 0xE51C7 |] in
  let history = random_history rng ~steps:200 in
  let server = make_server ~cache_capacity:2 () in
  Server.start server;
  let decisions = run_history_on_server server history in
  Server.drain server;
  let evictions = Server.Metrics.count (Server.metrics server) Server.Metrics.Cache_eviction in
  Server.stop server;
  let service = make_service () in
  let expected = run_history_on_service service history in
  check_bool "evicting cache still matches" true
    (sequences_equal (group_by_principal decisions) (group_by_principal expected));
  check_bool "evictions actually happened" true (evictions > 0)

(* The cache keys on the query's exact interned structure: a verbatim
   repeat hits, while an alpha-renamed or redundant-atom variant is labeled
   afresh — and every variant is still decided exactly as the sequential
   service decides it. *)
let test_cache_hits_across_variants () =
  let server = make_server () in
  Server.start server;
  let service = make_service () in
  List.iter
    (fun q ->
      let expected = Service.submit service ~principal:"calendar-app" q in
      check_bool "variant decided as Service.submit decides it" true
        (Monitor.decision_equal expected
           (Server.submit_sync server ~principal:"calendar-app" q)))
    [
      pq "Q(x) :- Meetings(x, y)";
      pq "Q(x) :- Meetings(x, y)";
      pq "Q(a) :- Meetings(a, b)";
      pq "Q(a) :- Meetings(a, b), Meetings(a, c)";
    ];
  Server.drain server;
  let metrics = Server.metrics server in
  let snapshot = Server.snapshot server in
  Server.stop server;
  check_int "only the verbatim repeat hit" 1
    (Server.Metrics.count metrics Server.Metrics.Cache_hit);
  check_int "the original and both variants were labeled" 3
    (Server.Metrics.count metrics Server.Metrics.Cache_miss);
  check_bool "monitor states match the sequential service" true
    (Service.snapshot service = snapshot)

(* One key per decision: every cached decision interns its query exactly
   once (the Canonicalize stage) and is either a hit or a miss — no second
   key level is ever computed. *)
let test_one_key_per_decision () =
  let server = make_server ~domains:1 () in
  Server.start server;
  let history =
    List.concat_map
      (fun principal ->
        Array.to_list (Array.map (fun q -> (principal, q)) queries)
        @ [ (principal, queries.(0)); (principal, queries.(2)) ])
      (Array.to_list principals)
  in
  List.iter (fun (principal, q) -> ignore (Server.submit_sync server ~principal q)) history;
  Server.drain server;
  let metrics = Server.metrics server in
  Server.stop server;
  let decisions = List.length history in
  check_int "one key computation per decision" decisions
    (Server.Metrics.histogram metrics Server.Metrics.Canonicalize).Server.Metrics.count;
  check_int "every decision is a hit or a miss" decisions
    (Server.Metrics.count metrics Server.Metrics.Cache_hit
    + Server.Metrics.count metrics Server.Metrics.Cache_miss);
  check_bool "repeats hit" true (Server.Metrics.count metrics Server.Metrics.Cache_hit > 0)

(* --- overload ---------------------------------------------------------- *)

(* Submitting before [start] queues deterministically: with capacity 1, the
   second query for the same shard must be shed as Refused Overload, with
   the shed principal's monitor left bit-identical. *)
let test_overload_sheds_fail_closed () =
  let server = make_server ~mailbox_capacity:1 ~cache_capacity:0 () in
  let before = Server.snapshot server in
  let q = pq "Q(x) :- Meetings(x, y)" in
  let t1 = Server.submit server ~principal:"calendar-app" q in
  let t2 = Server.submit server ~principal:"calendar-app" q in
  (match Server.Ivar.peek t2 with
  | Some (Monitor.Refused Guard.Overload) -> ()
  | Some d -> Alcotest.failf "expected Refused Overload, got %a" Monitor.pp_decision d
  | None -> Alcotest.fail "shed ticket must resolve immediately");
  check_bool "shed decision leaves every monitor bit-identical" true
    (Server.snapshot server = before);
  let metrics = Server.metrics server in
  check_int "overload counted" 1 (Server.Metrics.count metrics Server.Metrics.Overloaded);
  Server.start server;
  check_bool "queued query still decided" true
    (Server.await t1 = Monitor.Answered);
  Server.drain server;
  check_bool "only the accepted query reached the monitor" true
    (Server.stats server ~principal:"calendar-app" = (1, 0));
  Server.stop server

let test_overload_refusal_tag () =
  check_bool "overload tag roundtrips" true
    (Guard.refusal_of_tag (Guard.refusal_to_tag Guard.Overload) = Some Guard.Overload);
  check_bool "overload is not policy" true (not (Guard.refusal_equal Guard.Overload Guard.Policy))

(* --- journal segments and recovery ------------------------------------- *)

let test_segmented_recovery () =
  with_tmp_base (fun base ->
      let rng = Random.State.make [| 0x10C |] in
      let history = random_history rng ~steps:60 in
      let server = make_server ~journal:base () in
      Server.start server;
      ignore (run_history_on_server server history);
      Server.drain server;
      let live = Server.snapshot server in
      Server.stop server;
      (* Each shard wrote its own segment. *)
      let segments =
        List.init domains (fun i -> Printf.sprintf "%s.shard%d" base i)
      in
      List.iter
        (fun s -> check_bool ("segment exists: " ^ s) true (Sys.file_exists s))
        segments;
      (* A fresh server over the same deployment recovers bit-identically. *)
      let fresh = make_server () in
      (match Server.recover fresh ~journal:base with
      | Ok n -> check_int "all decisions replayed" (List.length history) n
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      check_bool "recovered state = live state" true (Server.snapshot fresh = live);
      let m = Server.metrics fresh in
      check_int "one recovery per shard counted" domains
        (Server.Metrics.count m Server.Metrics.Recoveries);
      check_int "replayed records counted" (List.length history)
        (Server.Metrics.count m Server.Metrics.Recovered_records);
      Server.stop fresh)

let test_recovery_tolerates_torn_segment () =
  with_tmp_base (fun base ->
      let server = make_server ~journal:base () in
      Server.start server;
      check_bool "setup answered" true
        (Server.submit_sync server ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)")
        = Monitor.Answered);
      Server.drain server;
      let live = Server.snapshot server in
      Server.stop server;
      (* Simulate a crash mid-append on shard 0's segment: the record is cut
         off inside the principal name, before the first tab. *)
      let victim = base ^ ".shard0" in
      let oc = open_out_gen [ Open_append ] 0o644 victim in
      output_string oc "calendar-ap";
      close_out oc;
      let fresh = make_server () in
      (match Server.recover fresh ~journal:base with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "torn final segment line must be tolerated: %s"
          (Service.recovery_error_to_string e));
      check_bool "recovered state ignores the torn line" true
        (Server.snapshot fresh = live);
      Server.stop fresh)

(* A running server checkpoints every shard via control messages; recovery
   then restores per-shard checkpoints and replays only the tails. *)
let test_checkpointed_server_recovery () =
  with_tmp_base (fun base ->
      let rng = Random.State.make [| 0xCA47 |] in
      let history = random_history rng ~steps:40 in
      let tail = random_history rng ~steps:11 in
      let server = make_server ~journal:base ~segment_bytes:512 () in
      Server.start server;
      ignore (run_history_on_server server history);
      Server.drain server;
      (match Server.checkpoint server with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      ignore (run_history_on_server server tail);
      Server.drain server;
      let live = Server.snapshot server in
      let m = Server.metrics server in
      check_bool "checkpoints counted" true
        (Server.Metrics.count m Server.Metrics.Checkpoints >= domains);
      check_bool "rotations counted" true
        (Server.Metrics.count m Server.Metrics.Rotations >= 1);
      Server.stop server;
      let fresh = make_server () in
      (match Server.recover fresh ~journal:base with
      | Ok n ->
        check_bool "only the tails replay" true (n <= List.length tail)
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      check_bool "checkpoint + tail = live" true (Server.snapshot fresh = live);
      Server.stop fresh)

(* The automatic cadence: every shard checkpoints itself as it processes
   decisions, with no cross-shard coordination, and decisions are
   unaffected. *)
let test_auto_checkpoint_equivalence () =
  with_tmp_base (fun base ->
      let rng = Random.State.make [| 0xAD0C |] in
      let history = random_history rng ~steps:60 in
      let server = make_server ~journal:base ~checkpoint_every:5 () in
      Server.start server;
      let decisions = run_history_on_server server history in
      Server.drain server;
      let live = Server.snapshot server in
      let m = Server.metrics server in
      check_bool "automatic checkpoints happened" true
        (Server.Metrics.count m Server.Metrics.Checkpoints > 0);
      Server.stop server;
      let service = make_service () in
      let expected = run_history_on_service service history in
      check_bool "auto-checkpointing never changes decisions" true
        (sequences_equal (group_by_principal decisions) (group_by_principal expected));
      let fresh = make_server () in
      (match Server.recover fresh ~journal:base with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      check_bool "recovered = live under auto checkpoints" true
        (Server.snapshot fresh = live);
      Server.stop fresh)

(* --- group commit ------------------------------------------------------- *)

(* One journaled pass over [history] with every query enqueued before
   [start]: the workers then dequeue full [drain]-sized batches, so the
   group-commit flush count is deterministic. Decisions are awaited after
   [drain] (group commit fills tickets only at each batch's covering
   flush). *)
let journaled_pass ~group_commit base history =
  let server = make_server ~journal:base ~group_commit () in
  let tickets =
    List.map (fun (principal, q) -> Server.submit server ~principal q) history
  in
  Server.start server;
  Server.drain server;
  let decisions =
    List.map2 (fun (principal, _) t -> (principal, Server.await t)) history tickets
  in
  let snapshot = Server.snapshot server in
  let flushes = Array.fold_left ( + ) 0 (Server.flush_counts server) in
  Server.stop server;
  let journals =
    List.init domains (fun i -> read_file (Printf.sprintf "%s.shard%d" base i))
  in
  (decisions, snapshot, flushes, journals)

(* The group-commit contract, differentially: against per-decision commits
   over the same history, decisions, monitor states, and journal bytes are
   all bit-identical, recovery restores the same state — and the observable
   difference is strictly fewer fsyncs. *)
let test_group_commit_differential () =
  with_tmp_base (fun base_off ->
      with_tmp_base (fun base_on ->
          let rng = Random.State.make [| 0x6C07 |] in
          let history = random_history rng ~steps:200 in
          let dec_off, snap_off, flushes_off, journals_off =
            journaled_pass ~group_commit:false base_off history
          in
          let dec_on, snap_on, flushes_on, journals_on =
            journaled_pass ~group_commit:true base_on history
          in
          check_bool "decision sequences identical" true
            (sequences_equal (group_by_principal dec_off) (group_by_principal dec_on));
          check_bool "monitor snapshots identical" true (snap_off = snap_on);
          List.iteri
            (fun i (off, on) ->
              check_bool (Printf.sprintf "shard %d journal bit-identical" i) true
                (String.equal off on))
            (List.combine journals_off journals_on);
          check_bool "per-decision mode flushed at least once per record" true
            (flushes_off >= List.length history * 9 / 10);
          check_bool
            (Printf.sprintf "group commit flushes strictly fewer (%d < %d)" flushes_on
               flushes_off)
            true
            (flushes_on < flushes_off);
          (* Batches are bounded by [drain], so at most ceil(records/drain)
             flushes per shard plus slack for short trailing batches. *)
          let drain = Server.default_config.Server.drain in
          let bound = ((List.length history + drain - 1) / drain) + (2 * domains) in
          check_bool
            (Printf.sprintf "flush count bounded by batching (%d <= %d)" flushes_on bound)
            true (flushes_on <= bound);
          (* The group-commit journal recovers to the live state. *)
          let fresh = make_server () in
          (match Server.recover fresh ~journal:base_on with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
          check_bool "recovered from group-commit journal = live state" true
            (Server.snapshot fresh = snap_on);
          Server.stop fresh))

(* --- flat combining ------------------------------------------------------ *)

(* Callers run the shards: 1–3 submitter domains, each owning its own
   principals, combine on the same shards, with group commit on and off.
   Per-principal decisions must equal the sequential service, and the
   journal the run leaves must replay to the live state. *)
let test_concurrent_submitters () =
  let rng = Random.State.make [| 0xF1A7 |] in
  for run = 0 to 23 do
    let submitters = 1 + (run mod 3) in
    let group_commit = run / 3 mod 2 = 1 in
    let history = random_history rng ~steps:(1 + Random.State.int rng 60) in
    with_tmp_base (fun base ->
        let server = make_server ~journal:base ~group_commit () in
        Server.start server;
        let owner principal =
          let rec find i = if principals.(i) = principal then i else find (i + 1) in
          find 0 mod submitters
        in
        let decisions =
          Array.init submitters (fun k ->
              let mine = List.filter (fun (p, _) -> owner p = k) history in
              Domain.spawn (fun () -> run_history_on_server server mine))
          |> Array.to_list |> List.concat_map Domain.join
        in
        Server.drain server;
        let live = Server.snapshot server in
        Server.stop server;
        let service = make_service () in
        let expected = run_history_on_service service history in
        check_bool
          (Printf.sprintf "%d submitter(s), group commit %b: decisions ≡ service"
             submitters group_commit)
          true
          (sequences_equal (group_by_principal decisions) (group_by_principal expected));
        let fresh = make_server () in
        (match Server.recover fresh ~journal:base with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
        check_bool "replay = live" true (Server.snapshot fresh = live);
        Server.stop fresh)
  done

(* The idle-full rule: a started shard whose queue is at capacity with
   nobody awaiting must not deadlock a barrier (the blocking push runs a
   round itself) nor shed the next submit. *)
let test_full_idle_queue () =
  let capacity = 4 in
  let server = make_server ~domains:1 ~mailbox_capacity:capacity () in
  Server.start server;
  let fill () =
    List.init capacity (fun _ -> Server.submit server ~principal:"calendar-app" queries.(0))
  in
  let first = fill () in
  Server.drain server;
  check_bool "drain on a full idle queue settles it" true
    (List.for_all (fun t -> Server.Ivar.peek t <> None) first);
  let second = fill () in
  let next = Server.submit server ~principal:"calendar-app" queries.(0) in
  check_bool "submit onto a full idle queue is decided, not shed" true
    (Server.await next = Monitor.Answered);
  check_int "nothing shed" 0
    (Server.Metrics.count (Server.metrics server) Server.Metrics.Overloaded);
  check_bool "the queue ahead of it was decided too" true
    (List.for_all (fun t -> Server.Ivar.peek t <> None) second);
  Server.stop server

(* A caller blocked on the claim is woken by the round that settles its
   ticket — here a round another domain runs, held open until the waiter
   has certainly blocked. *)
let test_waiter_woken_by_other_round () =
  let module Mb = Server.Mailbox in
  let metrics = Server.Metrics.create () in
  let mb = Mb.create ~capacity:8 ~drain:8 ~metrics in
  let entered = Atomic.make false and release = Atomic.make false in
  Mb.start mb (fun batch ->
      List.iter
        (fun (hold, ticket) ->
          if hold then begin
            Atomic.set entered true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done
          end;
          Server.Ivar.fill ticket ())
        batch);
  let held = Server.Ivar.create ~home:mb () and waited = Server.Ivar.create ~home:mb () in
  check_bool "queued" true (Mb.try_push mb (true, held) && Mb.try_push mb (false, waited));
  let runner = Domain.spawn (fun () -> Server.Ivar.read held) in
  while not (Atomic.get entered) do
    Domain.cpu_relax ()
  done;
  let waiter = Domain.spawn (fun () -> Server.Ivar.read waited) in
  while Server.Metrics.count metrics Server.Metrics.Ticket_waits = 0 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  Domain.join runner;
  Domain.join waiter;
  check_int "one round settled both tickets" 1
    (Server.Metrics.count metrics Server.Metrics.Combine_rounds)

(* [Ivar.peek] runs rounds but never waits: polling the last ticket alone
   decides an idle shard's whole queue — before start it only reports. *)
let test_peek_drives_idle_shard () =
  let server = make_server ~domains:1 () in
  let history = random_history (Random.State.make [| 0x9EE4 |]) ~steps:30 in
  let tickets = List.map (fun (principal, q) -> Server.submit server ~principal q) history in
  let last = List.nth tickets (List.length tickets - 1) in
  check_bool "peek before start is None" true (Server.Ivar.peek last = None);
  Server.start server;
  check_bool "one peek decides the idle shard's queue" true (Server.Ivar.peek last <> None);
  let service = make_service () in
  let expected = run_history_on_service service history in
  let decisions =
    List.map2 (fun (principal, _) t -> (principal, Option.get (Server.Ivar.peek t))) history
      tickets
  in
  check_bool "peeked decisions ≡ service" true
    (sequences_equal (group_by_principal decisions) (group_by_principal expected));
  Server.stop server

(* [stop] runs whatever is still queued on the caller: no ticket is left
   unsettled and the decisions are the sequential ones. *)
let test_stop_settles_queue () =
  let server = make_server () in
  Server.start server;
  let history = random_history (Random.State.make [| 0x5709 |]) ~steps:40 in
  let tickets = List.map (fun (principal, q) -> Server.submit server ~principal q) history in
  Server.stop server;
  check_bool "every ticket settled by stop" true
    (List.for_all (fun t -> Server.Ivar.peek t <> None) tickets);
  let service = make_service () in
  let expected = run_history_on_service service history in
  let decisions = List.map2 (fun (principal, _) t -> (principal, Server.await t)) history tickets in
  check_bool "stop-time decisions ≡ service" true
    (sequences_equal (group_by_principal decisions) (group_by_principal expected))

(* Attribution: a closed loop with one caller is one round per decision and
   never waits. *)
let test_combining_counters () =
  let server = make_server () in
  Server.start server;
  let n = 25 in
  for i = 1 to n do
    ignore
      (Server.submit_sync server
         ~principal:principals.(i mod Array.length principals)
         queries.(i mod Array.length queries))
  done;
  let m = Server.metrics server in
  check_int "one round per closed-loop decision" n
    (Server.Metrics.count m Server.Metrics.Combine_rounds);
  check_int "no waits" 0 (Server.Metrics.count m Server.Metrics.Ticket_waits);
  (* Every exporter (stats JSON, Prometheus, disclosurectl stats) walks
     this list. *)
  check_bool "counters exported" true
    (List.mem Server.Metrics.Combine_rounds Server.Metrics.counters
    && List.mem Server.Metrics.Ticket_waits Server.Metrics.counters);
  Server.stop server

(* --- lifecycle and misc ------------------------------------------------ *)

let test_unknown_principal () =
  let server = make_server () in
  Alcotest.check_raises "unknown" (Service.Unknown_principal "nobody") (fun () ->
      ignore (Server.submit server ~principal:"nobody" (pq "Q(x) :- Meetings(x, y)")));
  Server.stop server

let test_register_after_start_rejected () =
  let server = make_server () in
  Server.start server;
  (try
     Server.register server ~principal:"late-app" ~partitions:[ ("default", [ v2 ]) ];
     Alcotest.fail "registration after start must be rejected"
   with Invalid_argument _ -> ());
  Server.stop server

let test_stop_before_start_resolves_tickets () =
  let server = make_server () in
  let t = Server.submit server ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)") in
  Server.stop server;
  match Server.await t with
  | Monitor.Refused (Guard.Fault _) -> ()
  | d -> Alcotest.failf "expected a fault refusal, got %a" Monitor.pp_decision d

let test_metrics_accounting () =
  let server = make_server () in
  Server.start server;
  let history =
    List.concat_map
      (fun _ -> [ ("calendar-app", queries.(0)); ("crm-app", queries.(4)) ])
      [ 1; 2; 3 ]
  in
  ignore (run_history_on_server server history);
  Server.drain server;
  let m = Server.metrics server in
  Server.stop server;
  let module M = Server.Metrics in
  check_int "submitted" 6 (M.count m M.Submitted);
  check_int "all decided" 6 (M.count m M.Answered + M.count m M.Refused);
  check_bool "decide stage observed" true ((M.histogram m M.Decide).M.count > 0);
  check_bool "json shape" true
    (let json = Obs.Json.to_string (M.to_json m) in
     String.length json > 0 && json.[0] = '{' && String.length json > 50)

(* --- mailbox, cache, ivar unit tests ----------------------------------- *)

(* The bounded queue under flat combining: shedding before start, the
   full-queue rule once started (a push onto a full, unclaimed queue runs
   one round on the pusher instead of shedding), and finish. *)
let test_mailbox () =
  let module Mb = Server.Mailbox in
  let metrics = Server.Metrics.create () in
  let mb = Mb.create ~capacity:2 ~drain:1 ~metrics in
  let ran = ref [] in
  check_bool "push 1" true (Mb.try_push mb 1);
  check_bool "push 2" true (Mb.try_push mb 2);
  check_bool "push 3 shed at capacity before start" false (Mb.try_push mb 3);
  Mb.start mb (fun batch -> ran := !ran @ batch);
  check_bool "nothing runs on start" true (!ran = []);
  check_bool "full + started + unclaimed: push runs a round, then enqueues" true
    (Mb.try_push mb 3);
  check_bool "that round took one drain's worth, in order" true (!ran = [ 1 ]);
  Mb.finish mb;
  check_bool "finish runs the remainder in order" true (!ran = [ 1; 2; 3 ]);
  check_bool "push after finish refused" false (Mb.try_push mb 4);
  check_bool "blocking push after finish refused" false (Mb.push mb 4);
  check_int "one round per message at drain 1" 3
    (Server.Metrics.count metrics Server.Metrics.Combine_rounds);
  Alcotest.check_raises "capacity validated" (Invalid_argument
      "Mailbox.create: capacity must be >= 1") (fun () ->
      ignore (Mb.create ~capacity:0 ~drain:1 ~metrics));
  Alcotest.check_raises "drain validated" (Invalid_argument
      "Mailbox.create: drain must be >= 1") (fun () ->
      ignore (Mb.create ~capacity:1 ~drain:0 ~metrics))

(* A round takes at most [drain] messages: a queue pre-filled with
   2·drain+1 queries is run in exactly three rounds by one await on the
   last ticket, which never has to wait. *)
let test_rounds_take_drain () =
  let server = make_server ~domains:1 () in
  let drain = Server.default_config.Server.drain in
  let q = queries.(0) in
  let tickets =
    List.init ((2 * drain) + 1) (fun i ->
        Server.submit server ~principal:principals.(i mod Array.length principals) q)
  in
  Server.start server;
  let m = Server.metrics server in
  ignore (Server.await (List.nth tickets (2 * drain)));
  check_int "three rounds" 3 (Server.Metrics.count m Server.Metrics.Combine_rounds);
  check_int "no waits" 0 (Server.Metrics.count m Server.Metrics.Ticket_waits);
  check_bool "every earlier ticket settled by those rounds" true
    (List.for_all (fun t -> Server.Ivar.peek t <> None) tickets);
  Server.stop server

let test_label_cache_lru () =
  let c = Server.Label_cache.create ~capacity:2 in
  Server.Label_cache.add c "a" 1;
  Server.Label_cache.add c "b" 2;
  check_bool "hit a" true (Server.Label_cache.find c "a" = Some 1);
  (* "b" is now least-recently-used; adding "c" evicts it. *)
  Server.Label_cache.add c "c" 3;
  check_bool "b evicted" true (Server.Label_cache.find c "b" = None);
  check_bool "a survives" true (Server.Label_cache.find c "a" = Some 1);
  check_bool "c present" true (Server.Label_cache.find c "c" = Some 3);
  check_int "evictions" 1 (Server.Label_cache.evictions c);
  check_int "length" 2 (Server.Label_cache.length c)

(* Regression: repeated hits on the hottest key must take the fast path and
   leave the recency list alone. The original check compared [t.head] against
   a freshly allocated [Some node], which is always physically unequal, so
   every hit churned the list. *)
let test_label_cache_hot_key_no_churn () =
  let c = Server.Label_cache.create ~capacity:4 in
  Server.Label_cache.add c "hot" 1;
  Server.Label_cache.add c "cold" 2;
  (* "cold" is at the head; the first "hot" hit is a genuine promotion. *)
  check_bool "warm up" true (Server.Label_cache.find c "hot" = Some 1);
  check_int "one promotion to the front" 1 (Server.Label_cache.promotions c);
  for _ = 1 to 100 do
    ignore (Server.Label_cache.find c "hot")
  done;
  check_int "hot hits do not churn the recency list" 1
    (Server.Label_cache.promotions c);
  (* Re-adding the head entry is the same fast path. *)
  Server.Label_cache.add c "hot" 3;
  check_int "head re-add does not churn either" 1 (Server.Label_cache.promotions c);
  check_bool "value still replaced" true (Server.Label_cache.find c "hot" = Some 3);
  (* LRU order stayed intact: "cold" is the eviction candidate. *)
  Server.Label_cache.add c "x" 4;
  Server.Label_cache.add c "y" 5;
  Server.Label_cache.add c "z" 6;
  check_bool "cold evicted first" true (Server.Label_cache.find c "cold" = None);
  check_bool "hot survives" true (Server.Label_cache.find c "hot" = Some 3)

(* Regression: stage timings come from a monotonic clock and [record] clamps
   at zero, so a negative sample (e.g. a stepped wall clock under the old
   gettimeofday source) cannot underflow the bucket index. *)
let test_metrics_negative_sample () =
  let m = Server.Metrics.create () in
  Server.Metrics.record m Server.Metrics.Decide (-1.0);
  Server.Metrics.record m Server.Metrics.Decide (-1e-9);
  Server.Metrics.record m Server.Metrics.Decide 0.0;
  let h = Server.Metrics.histogram m Server.Metrics.Decide in
  check_int "all three samples land" 3 h.Server.Metrics.count;
  check_int "clamped into the zero bucket" 3 h.Server.Metrics.buckets.(0);
  check_int "no negative totals" 0 h.Server.Metrics.total_ns

let test_ivar () =
  let iv = Server.Ivar.create () in
  check_bool "empty" true (Server.Ivar.peek iv = None);
  Server.Ivar.fill iv 42;
  check_bool "filled" true (Server.Ivar.read iv = 42);
  check_bool "second fill refused" false (Server.Ivar.try_fill iv 43);
  check_bool "prefilled" true (Server.Ivar.read (Server.Ivar.create_filled 7) = 7)

let () =
  Printf.printf "SERVER_DOMAINS=%d\n%!" domains;
  Alcotest.run "disclosure-server"
    [
      ( "equivalence",
        [
          Alcotest.test_case "server ≡ single-threaded service over 120 random histories"
            `Quick test_sequential_equivalence;
          Alcotest.test_case "uncached server ≡ service" `Quick
            test_sequential_equivalence_uncached;
          Alcotest.test_case "equivalence survives constant eviction" `Quick
            test_equivalence_under_eviction;
          Alcotest.test_case "cache hits across query variants" `Quick
            test_cache_hits_across_variants;
          Alcotest.test_case "one cache key per decision" `Quick
            test_one_key_per_decision;
        ] );
      ( "overload",
        [
          Alcotest.test_case "full mailbox sheds fail-closed" `Quick
            test_overload_sheds_fail_closed;
          Alcotest.test_case "overload refusal tag" `Quick test_overload_refusal_tag;
        ] );
      ( "journal",
        [
          Alcotest.test_case "segmented journals recover bit-identically" `Quick
            test_segmented_recovery;
          Alcotest.test_case "torn final segment line tolerated" `Quick
            test_recovery_tolerates_torn_segment;
          Alcotest.test_case "explicit checkpoint on a running server" `Quick
            test_checkpointed_server_recovery;
          Alcotest.test_case "automatic per-shard checkpoint cadence" `Quick
            test_auto_checkpoint_equivalence;
          Alcotest.test_case "group commit: identical decisions, fewer fsyncs" `Quick
            test_group_commit_differential;
        ] );
      ( "combining",
        [
          Alcotest.test_case "1–3 submitter domains ≡ service, replay = live" `Quick
            test_concurrent_submitters;
          Alcotest.test_case "full idle queue: drain completes, submit decided" `Quick
            test_full_idle_queue;
          Alcotest.test_case "waiter woken by another caller's round" `Quick
            test_waiter_woken_by_other_round;
          Alcotest.test_case "peek alone drives an idle shard" `Quick
            test_peek_drives_idle_shard;
          Alcotest.test_case "stop settles a non-empty queue" `Quick test_stop_settles_queue;
          Alcotest.test_case "combine_rounds and ticket_waits" `Quick test_combining_counters;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "unknown principal" `Quick test_unknown_principal;
          Alcotest.test_case "no registration after start" `Quick
            test_register_after_start_rejected;
          Alcotest.test_case "stop before start resolves tickets" `Quick
            test_stop_before_start_resolves_tickets;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
        ] );
      ( "components",
        [
          Alcotest.test_case "bounded mailbox" `Quick test_mailbox;
          Alcotest.test_case "batched dequeue" `Quick test_rounds_take_drain;
          Alcotest.test_case "label cache LRU" `Quick test_label_cache_lru;
          Alcotest.test_case "hot key does not churn the LRU list" `Quick
            test_label_cache_hot_key_no_churn;
          Alcotest.test_case "negative latency sample cannot underflow" `Quick
            test_metrics_negative_sample;
          Alcotest.test_case "ivar" `Quick test_ivar;
        ] );
    ]
