(* Tests for the sharded multicore serving layer (lib/server). A separate
   executable from the main suite: these tests spawn domains.

   Equivalence with the sequential service under every serving axis is the
   differential oracle's job (test/support/oracle.ml, run by
   test_oracle.ml); this suite runs it on the cache, cadence and submitter
   slices ([Oracle.slice]). It keeps what the oracle does not state: cache
   hit accounting, overload shedding, per-shard segments and checkpoint
   counters, group-commit flush bounds, the flat-combining rounds, and the
   components. A test whose behaviour depends on the shard count loops over
   1, 2 and 4 shards itself. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let shard_counts = [ 1; 2; 4 ]

let run_history_on_server server history =
  let tickets =
    List.map (fun (principal, q) -> Server.submit server ~principal q) history
  in
  List.map Server.await tickets

let run_history_on_service service history =
  List.map (fun (principal, q) -> Service.submit service ~principal q) history

let decisions_equal = List.for_all2 Monitor.decision_equal

let recover_into server ~journal =
  match Server.recover server ~journal with
  | Ok n -> n
  | Error e -> Alcotest.fail (Service.recovery_error_to_string e)

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
  let server = make_server ~config:(config ~domains:1 ()) () in
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

(* [counter] after a drained run of a [steps]-long random history. *)
let counted ?journal ~config ~steps counter =
  let server = make_server ?journal ~config () in
  Server.start server;
  ignore (run_history_on_server server (random_history (Random.State.make [| 0xE51C7 |]) ~steps));
  Server.drain server;
  let n = Server.Metrics.count (Server.metrics server) counter in
  Server.stop server;
  n

(* A two-entry cache under a varied history evicts, and counts it. *)
let test_evictions_counted () =
  check_bool "evictions counted" true
    (counted ~config:(config ~cache_capacity:2 ()) ~steps:200 Server.Metrics.Cache_eviction > 0)

(* --- overload ---------------------------------------------------------- *)

(* Submitting before [start] queues deterministically: with capacity 1, the
   second query for the same shard must be shed as Refused Overload, with
   the shed principal's monitor left bit-identical. *)
let test_overload_sheds_fail_closed () =
  let server = make_server ~config:(config ~mailbox_capacity:1 ~cache_capacity:0 ()) () in
  let before = Server.snapshot server in
  let t1 = Server.submit server ~principal:"calendar-app" q_slots in
  let t2 = Server.submit server ~principal:"calendar-app" q_slots in
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
  List.iter
    (fun domains ->
      with_tmp_base (fun base ->
          let rng = Random.State.make [| 0x10C |] in
          let history = random_history rng ~steps:60 in
          let server = make_server ~journal:base ~config:(config ~domains ()) () in
          Server.start server;
          ignore (run_history_on_server server history);
          Server.drain server;
          let live = Server.snapshot server in
          Server.stop server;
          (* Each shard wrote its own segment. *)
          for i = 0 to domains - 1 do
            let s = Server.shard_journal base i in
            check_bool ("segment exists: " ^ s) true (Sys.file_exists s)
          done;
          (* A fresh server over the same deployment recovers bit-identically. *)
          let fresh = make_server ~config:(config ~domains ()) () in
          check_int "all decisions replayed" (List.length history)
            (recover_into fresh ~journal:base);
          check_bool "recovered state = live state" true (Server.snapshot fresh = live);
          let m = Server.metrics fresh in
          check_int "one recovery per shard counted" domains
            (Server.Metrics.count m Server.Metrics.Recoveries);
          check_int "replayed records counted" (List.length history)
            (Server.Metrics.count m Server.Metrics.Recovered_records);
          Server.stop fresh))
    shard_counts

let test_recovery_tolerates_torn_segment () =
  with_tmp_base (fun base ->
      let server = make_server ~journal:base () in
      Server.start server;
      check_bool "setup answered" true
        (Server.submit_sync server ~principal:"calendar-app" q_slots = Monitor.Answered);
      Server.drain server;
      let live = Server.snapshot server in
      Server.stop server;
      (* Simulate a crash mid-append on shard 0's segment: the record is cut
         off inside the principal name, before the first tab. *)
      let victim = Server.shard_journal base 0 in
      let oc = open_out_gen [ Open_append ] 0o644 victim in
      output_string oc "calendar-ap";
      close_out oc;
      let fresh = make_server () in
      ignore (recover_into fresh ~journal:base);
      check_bool "recovered state ignores the torn line" true
        (Server.snapshot fresh = live);
      Server.stop fresh)

(* A running server checkpoints every shard via control messages; recovery
   then restores per-shard checkpoints and replays only the tails. *)
let test_checkpointed_server_recovery () =
  List.iter
    (fun domains ->
      with_tmp_base (fun base ->
          let rng = Random.State.make [| 0xCA47 |] in
          let history = random_history rng ~steps:40 in
          let tail = random_history rng ~steps:11 in
          let server =
            make_server ~journal:base ~config:(config ~domains ~segment_bytes:512 ()) ()
          in
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
          let fresh = make_server ~config:(config ~domains ()) () in
          check_bool "only the tails replay" true
            (recover_into fresh ~journal:base <= List.length tail);
          check_bool "checkpoint + tail = live" true (Server.snapshot fresh = live);
          Server.stop fresh))
    shard_counts

(* The automatic per-shard cadence fires, and counts it, whatever the
   shard count. *)
let test_auto_checkpoints_counted () =
  List.iter
    (fun domains ->
      with_tmp_base (fun journal ->
          check_bool
            (Printf.sprintf "%d shards: automatic checkpoints counted" domains)
            true
            (counted ~journal ~config:(config ~domains ~checkpoint_every:2 ()) ~steps:60
               Server.Metrics.Checkpoints
            > 0)))
    shard_counts

(* --- group commit ------------------------------------------------------- *)

(* One journaled pass over [history] with every query enqueued before
   [start]: the rounds then dequeue full [drain]-sized batches, so the
   group-commit flush count is deterministic. Decisions are awaited after
   [drain] (group commit fills tickets only at each batch's covering
   flush). *)
let journaled_pass ~domains ~group_commit base history =
  let server = make_server ~journal:base ~config:(config ~domains ~group_commit ()) () in
  let tickets =
    List.map (fun (principal, q) -> Server.submit server ~principal q) history
  in
  Server.start server;
  Server.drain server;
  let decisions = List.map Server.await tickets in
  let flushes = Array.fold_left ( + ) 0 (Server.flush_counts server) in
  Server.stop server;
  (decisions, flushes)

(* The observable difference group commit makes: strictly fewer flushes,
   bounded by the batching, for the same decisions. (Bit-identity of the
   journal and recovery is the oracle's.) *)
let test_group_commit_differential () =
  List.iter
    (fun domains ->
      with_tmp_base (fun base_off ->
          with_tmp_base (fun base_on ->
              let rng = Random.State.make [| 0x6C07 |] in
              let history = random_history rng ~steps:200 in
              let dec_off, flushes_off =
                journaled_pass ~domains ~group_commit:false base_off history
              in
              let dec_on, flushes_on = journaled_pass ~domains ~group_commit:true base_on history in
              check_bool "decision sequences identical" true (decisions_equal dec_off dec_on);
              check_bool "per-decision mode flushed at least once per record" true
                (flushes_off >= List.length history * 9 / 10);
              check_bool
                (Printf.sprintf "group commit flushes strictly fewer (%d < %d)" flushes_on
                   flushes_off)
                true (flushes_on < flushes_off);
              (* Batches are bounded by [drain], so at most ceil(records/drain)
                 flushes per shard plus slack for short trailing batches. *)
              let drain = Server.default_config.Server.drain in
              let bound = ((List.length history + drain - 1) / drain) + (2 * domains) in
              check_bool
                (Printf.sprintf "flush count bounded by batching (%d <= %d)" flushes_on bound)
                true (flushes_on <= bound))))
    shard_counts

(* A journaled shard always has a watermark. A reader that loaded the old
   service just before a reload's swap finds it closed; it must follow the
   swap rather than report [None], which replication reads as "no
   position" and a scrape shows as [null]. Another domain polls every
   shard while this one reloads over and over. *)
let test_watermark_survives_reloads () =
  with_tmp_base (fun journal ->
      let domains = 2 in
      let server = make_server ~journal ~config:(config ~domains ()) () in
      Server.start server;
      ignore (Server.submit_sync server ~principal:"crm-app" q_contacts);
      let stop = Atomic.make false in
      let poller =
        Domain.spawn (fun () ->
            let nones = ref 0 and polls = ref 0 in
            while not (Atomic.get stop) do
              for shard = 0 to domains - 1 do
                incr polls;
                if Server.journal_position server ~shard = None then incr nones
              done
            done;
            (!nones, !polls))
      in
      for _ = 1 to 300 do
        match Server.reload server policy with
        | Ok () -> ()
        | Error e -> Alcotest.failf "reload: %s" e
      done;
      Atomic.set stop true;
      let nones, polls = Domain.join poller in
      Server.stop server;
      if nones > 0 then
        Alcotest.failf "%d of %d watermark reads were None across 300 reloads" nones polls)

(* --- flat combining ------------------------------------------------------ *)

(* The idle-full rule: a started shard whose queue is at capacity with
   nobody awaiting must not deadlock a barrier (the blocking push runs a
   round itself) nor shed the next submit. *)
let test_full_idle_queue () =
  let capacity = 4 in
  let server = make_server ~config:(config ~domains:1 ~mailbox_capacity:capacity ()) () in
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
  let server = make_server ~config:(config ~domains:1 ()) () in
  let history = random_history (Random.State.make [| 0x9EE4 |]) ~steps:30 in
  let tickets = List.map (fun (principal, q) -> Server.submit server ~principal q) history in
  let last = List.nth tickets (List.length tickets - 1) in
  check_bool "peek before start is None" true (Server.Ivar.peek last = None);
  Server.start server;
  check_bool "one peek decides the idle shard's queue" true (Server.Ivar.peek last <> None);
  let service = make_service () in
  let expected = run_history_on_service service history in
  let decisions = List.map (fun t -> Option.get (Server.Ivar.peek t)) tickets in
  check_bool "peeked decisions ≡ service" true (decisions_equal decisions expected);
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
  let decisions = List.map Server.await tickets in
  check_bool "stop-time decisions ≡ service" true (decisions_equal decisions expected)

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
      ignore (Server.submit server ~principal:"nobody" q_slots));
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
  let t = Server.submit server ~principal:"calendar-app" q_slots in
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
  let server = make_server ~config:(config ~domains:1 ()) () in
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

(* --- scale: one dense principal table per shard ---------------------- *)

(* [n] principals cycling over the deployment's partition lists, as a
   policy file and resolved. The resolved lists are shared per template,
   so a measurement taken after this holds only what registration adds. *)
let population n =
  let templates = Array.of_list policy.Policyfile.principals in
  let pf =
    {
      policy with
      Policyfile.principals =
        List.init n (fun i ->
            (Printf.sprintf "app-%06d" i, snd templates.(i mod Array.length templates)));
    }
  in
  let shared = Array.map (fun (name, _) -> partitions name) templates in
  (pf, Array.init n (fun i -> (Printf.sprintf "app-%06d" i, shared.(i mod Array.length shared))))

(* A running two-shard server over [n] principals, each charged with one
   decision (answered or a policy refusal), so every monitor holds a state
   that is not its initial one. *)
let charged_server n =
  let pf, pop = population n in
  let server = Server.create ~config:(config ()) (pipeline ()) in
  Array.iter (fun (principal, partitions) -> Server.register server ~principal ~partitions) pop;
  Server.start server;
  Array.iteri
    (fun i (principal, _) ->
      ignore (Server.submit_sync server ~principal (if i mod 2 = 0 then q_slots else q_meetings)))
    pop;
  Server.drain server;
  (server, pf, pop)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let popcount m =
  let rec go m n = if m = 0 then n else go (m land (m - 1)) (n + 1) in
  go m 0

(* Reloading an unchanged configuration carries every principal's state,
   in time linear in the population: the carry-over used to scan the old
   registration list and snapshot once per principal while the shard's
   claim was held (42.8 s at 40k principals on a 2-vCPU host). *)
let test_reload_linear () =
  let server, pf, pop = charged_server 40_000 in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      let state principal =
        (Server.stats server ~principal, Server.alive server ~principal)
      in
      let before = Array.map (fun (principal, _) -> state principal) pop in
      let result, seconds = timed (fun () -> Server.reload server pf) in
      (match result with Ok () -> () | Error e -> Alcotest.failf "reload: %s" e);
      Server.drain server;
      Array.iteri
        (fun i (principal, _) ->
          let (answered, refused), _ = before.(i) in
          if answered + refused <> 1 then Alcotest.failf "%s was not charged" principal;
          if state principal <> before.(i) then
            Alcotest.failf "%s lost its state across the reload" principal)
        pop;
      if seconds > 5.0 then
        Alcotest.failf "reload of %d principals took %.2f s (bound 5 s)" (Array.length pop)
          seconds)

(* [Server.snapshot] builds one snapshot per shard and merges it into
   registration order; it used to rebuild a shard's whole snapshot per
   principal (about 175 s at 20k principals). *)
let test_snapshot_linear () =
  let server, _, pop = charged_server 20_000 in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      let snap, seconds = timed (fun () -> Server.snapshot server) in
      check_bool "registration order" true
        (List.map fst snap = Array.to_list (Array.map fst pop)
        && List.map fst snap = Server.principals server);
      List.iter
        (fun (principal, (st : Monitor.state)) ->
          if
            Server.stats server ~principal <> (st.Monitor.answered_count, st.Monitor.refused_count)
            || List.length (Server.alive server ~principal) <> popcount st.Monitor.alive_mask
          then Alcotest.failf "%s: snapshot disagrees with stats/alive" principal)
        snap;
      if seconds > 5.0 then
        Alcotest.failf "snapshot of %d principals took %.2f s (bound 5 s)" (Array.length pop)
          seconds)

(* Live heap words one registration adds through [Server.register]: one
   table entry, a name slot and a monitor slot per principal, and a
   monitor unless a tiered store keeps it cold. The four per-principal
   lists and tables this replaced cost 27.3 words. *)
let words_per_principal ?resident n =
  let _, pop = population n in
  with_tmp_base (fun base ->
      let server = Server.create ~journal:base ~config:(config ?resident ()) (pipeline ()) in
      Gc.full_major ();
      let w0 = (Gc.stat ()).Gc.live_words in
      Array.iter (fun (principal, partitions) -> Server.register server ~principal ~partitions) pop;
      Gc.full_major ();
      let w1 = (Gc.stat ()).Gc.live_words in
      Server.stop server;
      float_of_int (w1 - w0) /. float_of_int n)

let test_words_per_principal () =
  List.iter
    (fun (what, resident) ->
      let words = words_per_principal ?resident 20_000 in
      if words > 14.0 then
        Alcotest.failf "%s: %.1f live words per registered principal (bound 14)" what words)
    [ ("always resident", None); ("tiered", Some (Store.Principals 64)) ]

(* The global order records the shard of each registration: one byte each
   up to 256 shards, four beyond; both widths give back registration
   order, for [principals] and [snapshot] alike. *)
let test_registration_order_widths () =
  List.iter
    (fun domains ->
      let _, pop = population 600 in
      let server = Server.create ~config:(config ~domains ()) (pipeline ()) in
      Array.iter (fun (principal, partitions) -> Server.register server ~principal ~partitions) pop;
      let expected = Array.to_list (Array.map fst pop) in
      check_bool
        (Printf.sprintf "principals in order over %d shards" domains)
        true
        (Server.principals server = expected);
      check_bool
        (Printf.sprintf "snapshot in order over %d shards" domains)
        true
        (List.map fst (Server.snapshot server) = expected);
      Server.stop server)
    [ 3; 300 ]

let () =
  Alcotest.run "disclosure-server"
    [
      ( "equivalence",
        [
          Oracle.slice "server ≡ single-threaded service over random histories" ~pin:(fun c ->
              { c with Oracle.cache = 256 });
          Oracle.slice "uncached server ≡ service" ~pin:(fun c -> { c with Oracle.cache = 0 });
          Oracle.slice "equivalence survives constant eviction" ~pin:(fun c ->
              { c with Oracle.cache = 2 });
          Alcotest.test_case "cache hits across query variants" `Quick
            test_cache_hits_across_variants;
          Alcotest.test_case "evictions counted under a tiny cache" `Quick
            test_evictions_counted;
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
          Oracle.slice "automatic per-shard checkpoint cadence" ~pin:(fun c ->
              { c with Oracle.checkpoint = Oracle.Every 2 });
          Alcotest.test_case "automatic checkpoints counted" `Quick
            test_auto_checkpoints_counted;
          Alcotest.test_case "group commit: identical decisions, fewer fsyncs" `Quick
            test_group_commit_differential;
          Alcotest.test_case "journal watermark survives reloads" `Quick
            test_watermark_survives_reloads;
        ] );
      ( "combining",
        [
          Oracle.slice "1–3 submitter domains ≡ service, replay = live" ~pin:(fun c ->
              { c with Oracle.transport = Oracle.In_process });
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
      ( "scale",
        [
          Alcotest.test_case "reload of 40k unchanged principals is linear" `Quick
            test_reload_linear;
          Alcotest.test_case "snapshot of 20k principals is linear" `Quick
            test_snapshot_linear;
          Alcotest.test_case "at most 14 live words per registered principal" `Quick
            test_words_per_principal;
          Alcotest.test_case "registration order over narrow and wide shard counts" `Quick
            test_registration_order_widths;
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
