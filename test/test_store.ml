(* Suite for the tiered principal store (DESIGN.md §14).

   Self-contained (its own executable: it arms the global fault hooks).
   That a tiered server's decisions, journal bytes and checkpoint bytes are
   bit-identical to an always-resident one's, under group commit too, is
   the differential oracle's resident-budget axis (test/support/oracle.ml).
   This suite pins the store's own contract: eviction, spill and fault-in
   counters, the fresh tier, budgets, compaction, and fail-closed spill
   faults — a spill record that cannot be read back refuses the touching
   query with [Resource (Spill _)] and leaves every resident monitor
   bit-identical. *)

open Support

module Guard = Disclosure.Guard
module Faults = Disclosure.Faults
module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Journal = Disclosure.Journal
module Pipeline = Disclosure.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Q(x) :- Contacts(x, y, z): answerable from the contacts side alone. *)
let q_contact_ids = queries.(5)

(* Build a journaled service, optionally tiered with [budget]. Returns the
   service and the store (when tiered). *)
let make ?budget base =
  let service = Service.create ~journal:base (pipeline ()) in
  let store =
    Option.map
      (fun b -> Store.create ~budget:b ~spill:(Journal.spill_path base) service)
      budget
  in
  List.iter
    (fun (principal, partitions) ->
      match store with
      | Some s -> Store.register s ~principal ~partitions
      | None -> Service.register service ~principal ~partitions)
    deployment;
  (service, store)

let teardown service store =
  (match store with Some s -> Store.close s | None -> ());
  Service.close service

(* --- construction ------------------------------------------------------- *)

let test_create_validation () =
  with_tmp_base (fun base ->
      let service = Service.create (Pipeline.create [ v1; v2 ]) in
      Alcotest.check_raises "zero principals"
        (Invalid_argument "Store.create: budget must be >= 1 principal")
        (fun () ->
          ignore (Store.create ~budget:(Store.Principals 0) ~spill:(Journal.spill_path base) service));
      Alcotest.check_raises "zero bytes"
        (Invalid_argument "Store.create: budget must be >= 1 byte") (fun () ->
          ignore (Store.create ~budget:(Store.Bytes 0) ~spill:(Journal.spill_path base) service));
      let store =
        Store.create ~budget:(Store.Principals 1) ~spill:(Journal.spill_path base) service
      in
      (* One tier per service: the second wrapper must be rejected. *)
      check_bool "second tier rejected" true
        (match Store.create ~budget:(Store.Principals 1) ~spill:(base ^ ".spill2") service with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Store.close store;
      Service.close service)

(* The spill path is process-private scratch: stale bytes from a previous
   process must not survive Store.create. *)
let test_spill_truncated_at_create () =
  with_tmp_base (fun base ->
      Out_channel.with_open_bin (Journal.spill_path base) (fun oc ->
          Out_channel.output_string oc "stale garbage from a dead process");
      let service, store = make ~budget:(Store.Principals 1) base in
      let st = Store.stats (Option.get store) in
      check_bool "stale spill bytes gone" true
        (st.Store.stat_spill_bytes < 32);
      teardown service store)

(* --- eviction, fault-in, tiers ------------------------------------------ *)

let test_eviction_and_fault_in () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      (* Dirty crm-app (one answered query narrows its wall), then force it
         out: budget 1 and two other registered principals. *)
      check_bool "crm answered" true
        (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
      ignore (Service.submit service ~principal:"calendar-app" q_slots);
      Store.enforce store;
      check_bool "resident within budget" true (Store.resident store <= 1);
      let st = Store.stats store in
      check_bool "evictions happened" true (st.Store.stat_evictions > 0);
      check_bool "dirty eviction wrote a spill record" true
        (st.Store.stat_spill_writes > 0);
      (* Touching the spilled principal faults it back in with its history:
         the contacts side was chosen, so meetings must still refuse. *)
      check_bool "faulted-in history intact (refuses meetings)" true
        (Service.submit service ~principal:"crm-app" q_meetings |> Monitor.is_refused);
      check_bool "faulted-in history intact (answers contacts)" true
        (Service.submit service ~principal:"crm-app" q_contact_ids = Monitor.Answered);
      check_bool "fault-ins counted" true
        ((Store.stats store).Store.stat_fault_ins > 0);
      teardown service (Some store))

(* Pristine monitors take the fresh tier: zero spill I/O. *)
let test_fresh_tier_zero_io () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      Store.enforce store;
      let st = Store.stats store in
      check_bool "evicted below budget" true (st.Store.stat_resident <= 1);
      check_int "no spill records for pristine monitors" 0 st.Store.stat_spill_writes;
      check_bool "evicted principals are fresh" true (st.Store.stat_fresh >= 2);
      (* A fresh principal faults in as pristine: full lattice available. *)
      check_bool "fresh fault-in answers" true
        (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
      teardown service (Some store))

let test_stats_invariant () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 2) base in
      let store = Option.get store in
      let rng = Random.State.make [| 0xACE |] in
      for _ = 1 to 200 do
        let principal = principals.(Random.State.int rng (Array.length principals)) in
        ignore
          (Service.submit service ~principal
             queries.(Random.State.int rng (Array.length queries)));
        if Random.State.int rng 3 = 0 then Store.enforce store
      done;
      let st = Store.stats store in
      check_int "tiers partition the population"
        (Array.length principals)
        (st.Store.stat_resident + st.Store.stat_spilled + st.Store.stat_fresh);
      teardown service (Some store))

(* One random history: (principal index, action index) pairs; action >=
   Array.length queries means reset. *)
let random_history rng steps =
  List.init steps (fun _ ->
      ( Random.State.int rng (Array.length principals),
        Random.State.int rng (Array.length queries + 1) ))

(* Under group commit, eviction waits for the batch boundary: an aborting
   batch restores pre-batch state through the resident table. (The
   decisions and bytes it leaves are the oracle's.) *)
let test_group_commit_differential () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      Service.batch_begin service;
      ignore (Service.submit service ~principal:"crm-app" q_contacts);
      ignore (Service.submit service ~principal:"calendar-app" q_slots);
      let ev_in = (Store.stats store).Store.stat_evictions in
      Store.enforce store;
      check_int "no eviction inside an open batch" ev_in
        (Store.stats store).Store.stat_evictions;
      (match Service.batch_end service with
      | Ok () -> ()
      | Error r -> Alcotest.failf "batch aborted: %s" (Guard.refusal_to_tag r));
      Store.enforce store;
      check_bool "eviction resumes at the batch boundary" true
        ((Store.stats store).Store.stat_evictions > 0);
      teardown service (Some store))

(* --- fault injection ----------------------------------------------------- *)

let all_faults = [ Faults.Exhaust_fuel; Faults.Expire_deadline; Faults.Raise "injected" ]

(* A spill-write fault aborts the eviction: the dirty principal stays
   resident, its state untouched, and no query is ever refused — the
   touching query that forced the over-budget state still answers. *)
let test_spill_fault_keeps_resident () =
  List.iter
    (fun fault ->
      with_tmp_base (fun base ->
          (* Budget 2: dirty crm-app and calendar-app both fit; the audit-app
             touch below then needs an eviction, and the only candidates are
             dirty — exactly the spill path. *)
          let service, store = make ~budget:(Store.Principals 2) base in
          let store = Option.get store in
          check_bool "setup answered (crm)" true
            (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
          check_bool "setup answered (calendar)" true
            (Service.submit service ~principal:"calendar-app" q_slots
            = Monitor.Answered);
          let writes0 = (Store.stats store).Store.stat_spill_writes in
          let others snap = List.filter (fun (p, _) -> p <> "mail-app") snap in
          let before = others (Service.snapshot service) in
          let d =
            Faults.with_fault Faults.Spill fault (fun () ->
                Service.submit service ~principal:"mail-app" q_slots)
          in
          check_bool "the touching query still answers" true (d = Monitor.Answered);
          check_int "no spill record written under the fault" writes0
            (Store.stats store).Store.stat_spill_writes;
          check_bool "dirty principals stayed resident, over budget" true
            (Store.resident store > 2);
          check_bool "their state is untouched" true
            (others (Service.snapshot service) = before);
          (* Disarmed, the next pass spills normally and history survives. *)
          Store.enforce store;
          check_bool "eviction succeeds once disarmed" true
            (Store.resident store <= 2);
          check_bool "spill writes resume once disarmed" true
            ((Store.stats store).Store.stat_spill_writes > writes0);
          check_bool "history intact after the retried spill" true
            (Service.submit service ~principal:"crm-app" q_meetings
            |> Monitor.is_refused);
          teardown service (Some store)))
    all_faults

(* A fault-in fault refuses the touching query with [Resource (Spill _)],
   leaves every resident monitor bit-identical, and journals the refusal. *)
let test_fault_in_fault_refuses () =
  List.iter
    (fun fault ->
      with_tmp_base (fun base ->
          let service, store = make ~budget:(Store.Principals 1) base in
          let store = Option.get store in
          check_bool "setup answered" true
            (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
          (* Displace crm-app: the calendar touch faults calendar in, and the
             fault-in's own enforcement evicts the dirty crm monitor. *)
          ignore (Service.submit service ~principal:"calendar-app" q_slots);
          Store.enforce store;
          check_bool "crm spilled" true
            (Service.resident_monitor service "crm-app" = None);
          let before = Service.snapshot service in
          let d =
            Faults.with_fault Faults.Fault_in fault (fun () ->
                Service.submit service ~principal:"crm-app" q_contact_ids)
          in
          (match d with
          | Monitor.Refused (Guard.Resource (Guard.Spill _)) -> ()
          | d ->
            Alcotest.failf "expected a spill refusal, got %a" Monitor.pp_decision d);
          check_bool "refusal left every monitor bit-identical" true
            (Service.snapshot service = before);
          (* Disarmed, the same touch faults in and the history is intact. *)
          check_bool "fault-in succeeds once disarmed" true
            (Service.submit service ~principal:"crm-app" q_contact_ids = Monitor.Answered);
          check_bool "history intact" true
            (Service.submit service ~principal:"crm-app" q_meetings
            |> Monitor.is_refused);
          let live = Service.snapshot service in
          teardown service (Some store);
          (* The refusal is durable: the journal replays to the same state. *)
          let fresh, fstore = make ~budget:(Store.Principals 1) (base ^ ".re") in
          (match Service.recover fresh ~journal:base with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
          check_bool "journal (with the spill refusal) replays bit-identically"
            true
            (Service.snapshot fresh = live);
          teardown fresh fstore))
    all_faults

(* A corrupt spill record on disk is a typed fail-closed refusal; repairing
   the bytes restores service with the history intact. *)
let test_corrupt_spill_fails_closed () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      check_bool "setup answered" true
        (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
      ignore (Service.submit service ~principal:"calendar-app" q_slots);
      Store.enforce store;
      check_bool "crm spilled" true
        (Service.resident_monitor service "crm-app" = None);
      let spill = base ^ ".spill" in
      let good = read_file spill in
      let flip i =
        let b = Bytes.of_string good in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
        Out_channel.with_open_bin spill (fun oc -> Out_channel.output_bytes oc b)
      in
      let restore () =
        Out_channel.with_open_bin spill (fun oc -> Out_channel.output_string oc good)
      in
      (* Flip a byte inside the record body (past the header). *)
      flip (String.length good - 8);
      (match Service.submit service ~principal:"crm-app" q_contact_ids with
      | Monitor.Refused (Guard.Resource (Guard.Spill _)) -> ()
      | d -> Alcotest.failf "expected a spill refusal, got %a" Monitor.pp_decision d);
      check_bool "still refusing while corrupt" true
        (Service.submit service ~principal:"crm-app" q_contact_ids |> Monitor.is_refused);
      restore ();
      check_bool "repaired record faults in" true
        (Service.submit service ~principal:"crm-app" q_contact_ids = Monitor.Answered);
      check_bool "history intact after repair" true
        (Service.submit service ~principal:"crm-app" q_meetings |> Monitor.is_refused);
      teardown service (Some store))

(* --- reset, recovery, compaction ----------------------------------------- *)

let test_reset_spilled_principal () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      check_bool "narrowed" true
        (Service.submit service ~principal:"crm-app" q_contacts = Monitor.Answered);
      ignore (Service.submit service ~principal:"calendar-app" q_slots);
      Store.enforce store;
      check_bool "spilled" true (Service.resident_monitor service "crm-app" = None);
      Service.reset service ~principal:"crm-app";
      check_bool "reset restored the full lattice" true
        (Service.submit service ~principal:"crm-app" q_meetings = Monitor.Answered);
      let live = Service.snapshot service in
      teardown service (Some store);
      let fresh, fstore = make ~budget:(Store.Principals 1) (base ^ ".re") in
      (match Service.recover fresh ~journal:base with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      check_bool "reset-through-spill replays bit-identically" true
        (Service.snapshot fresh = live);
      teardown fresh fstore)

(* Recovery replays through the tier: the recovering store's spill file is
   reset first (the journal is the authority), then repopulated by the
   replay's own evictions. *)
let test_recover_through_tier () =
  with_tmp_base (fun base ->
      let history = random_history (Random.State.make [| 0x5111 |]) 40 in
      let service, store = make base in
      List.iter
        (fun (pi, ai) ->
          let principal = principals.(pi) in
          if ai >= Array.length queries then Service.reset service ~principal
          else ignore (Service.submit service ~principal queries.(ai)))
        history;
      let live = Service.snapshot service in
      teardown service store;
      let fresh, fstore = make ~budget:(Store.Principals 1) (base ^ ".re") in
      let fstore = Option.get fstore in
      (match Service.recover fresh ~journal:base with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      check_bool "recovered through the tier = live" true
        (Service.snapshot fresh = live);
      check_bool "replay stayed within budget" true (Store.resident fstore <= 1);
      teardown fresh (Some fstore))

let test_compaction () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      (* Spill/fault-in cycles leave dead records behind. *)
      for _ = 1 to 20 do
        ignore (Service.submit service ~principal:"crm-app" q_contact_ids);
        ignore (Service.submit service ~principal:"calendar-app" q_slots);
        Store.enforce store
      done;
      let before = (Store.stats store).Store.stat_spill_bytes in
      Store.compact ~force:true store;
      let after = (Store.stats store).Store.stat_spill_bytes in
      check_bool "compaction shrank the spill file" true (after < before);
      (* Offsets were repointed: spilled principals still fault in. *)
      check_bool "post-compaction fault-in" true
        (Service.submit service ~principal:"crm-app" q_contact_ids = Monitor.Answered);
      check_bool "history intact" true
        (Service.submit service ~principal:"crm-app" q_meetings |> Monitor.is_refused);
      teardown service (Some store))

let test_bytes_budget () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Bytes 1) base in
      let store = Option.get store in
      (* 1 byte resolves to the 1-principal floor. *)
      ignore (Service.submit service ~principal:"crm-app" q_contacts);
      Store.enforce store;
      check_bool "byte budget bounds the resident set" true
        (Store.resident store <= 1);
      check_bool "decisions unaffected" true
        (Service.submit service ~principal:"crm-app" q_contact_ids = Monitor.Answered);
      teardown service (Some store))

(* --- shared policies, fresh registration, copying checkpoints ----------- *)

module Policy = Disclosure.Policy

(* A rebuilt copy of a partition list: structurally equal, physically
   distinct down to the strings, like two principals' lines of a policy
   file. *)
let rebuilt partitions =
  List.map (fun (name, views) -> (String.concat "" [ name ], List.map Fun.id views)) partitions

let test_policy_interned () =
  let service = Service.create (pipeline ()) in
  let crm = partitions "crm-app" in
  let copy = rebuilt crm in
  check_bool "the copy is physically distinct" true (copy != crm);
  check_bool "equal lists share one compiled policy" true
    (Service.policy service crm == Service.policy service copy);
  check_bool "a different list gets its own" true
    (Service.policy service crm != Service.policy service (partitions "mail-app"));
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 8) base in
      let store = Option.get store in
      Store.register store ~principal:"crm-copy" ~partitions:copy;
      List.iter
        (fun principal -> ignore (Service.submit service ~principal q_slots))
        [ "crm-app"; "crm-copy" ];
      let policy_of p = Monitor.policy (Option.get (Service.resident_monitor service p)) in
      check_bool "faulted-in monitors share the policy" true
        (policy_of "crm-app" == policy_of "crm-copy");
      teardown service (Some store))

(* Registration goes straight to the fresh tier: no monitor, no clock
   entry, no eviction — whatever the population. *)
let test_register_fresh () =
  with_tmp_base (fun base ->
      let service, store = make ~budget:(Store.Principals 1) base in
      let store = Option.get store in
      for i = 1 to 100 do
        Store.register store ~principal:(Printf.sprintf "app-%d" i)
          ~partitions:(rebuilt (partitions "crm-app"))
      done;
      let st = Store.stats store in
      check_int "nothing resident" 0 st.Store.stat_resident;
      check_int "no evictions" 0 st.Store.stat_evictions;
      check_int "everyone fresh" (100 + Array.length principals) st.Store.stat_fresh;
      check_bool "registration order kept" true
        (List.filteri (fun i _ -> i < Array.length principals) (Service.principals service)
        = Array.to_list principals);
      Alcotest.check_raises "a fresh duplicate is refused"
        (Service.Duplicate_principal "app-7") (fun () ->
          Store.register store ~principal:"app-7" ~partitions:[ ("x", [ v1 ]) ]);
      check_bool "first query faults in and answers" true
        (Service.submit service ~principal:"app-50" q_contacts = Monitor.Answered);
      check_int "one fault-in" 1 (Store.stats store).Store.stat_fault_ins;
      teardown service (Some store))

(* A Bytes budget divides by a principal's own heap cost: its monitor's
   words without the policy it shares, its name, and index overhead. *)
let test_bytes_estimate_excludes_policy () =
  (* Six principals of equal name length; the budget holds three and a half
     of them at the per-principal estimate without the policy. *)
  let monitor_words = 6 (* header + policy, initial, alive, answered, refused *) in
  let per = (monitor_words * (Sys.word_size / 8)) + String.length "p0" + 64 in
  let names = List.init 6 (Printf.sprintf "p%d") in
  let resident_after partitions =
    with_tmp_base (fun base ->
        let service = Service.create ~journal:base (pipeline ()) in
        let store =
          Store.create ~budget:(Store.Bytes ((3 * per) + (per / 2))) ~spill:(Journal.spill_path base) service
        in
        List.iter (fun principal -> Store.register store ~principal ~partitions) names;
        check_int "registration makes nothing resident" 0 (Store.resident store);
        List.iter
          (fun principal -> ignore (Service.submit service ~principal q_slots))
          names;
        let resident = Store.resident store in
        teardown service (Some store);
        resident)
  in
  let small = [ ("slots", [ v2 ]) ] in
  let large = List.init 40 (fun i -> (Printf.sprintf "p%d" i, [ v1; v2; v3 ])) in
  check_int "per-principal estimate pinned" 3 (resident_after small);
  check_int "the policy's size does not count" 3 (resident_after large)

(* The reference registration: every principal resident, each with a policy
   of its own from [Policy.make]. *)
let register_reference service ~principal ~partitions =
  Service.register service ~principal ~partitions;
  let id = Option.get (Service.find service principal) in
  ignore (Service.detach service id);
  Service.adopt service id
    (Monitor.create (Policy.make (Pipeline.registry (Service.pipeline service)) partitions))

(* Six principals over the deployment's partition lists, each rebuilt. *)
let population =
  List.init 6 (fun i ->
      let _, partitions = List.nth deployment (i mod List.length deployment) in
      (Printf.sprintf "p%d" i, rebuilt partitions))

(* The population registered one way or the other, over a journal or
   none. *)
let populate ~shared ?budget ?journal base =
  let service = Service.create ?journal (pipeline ()) in
  let store =
    Option.map (fun b -> Store.create ~budget:b ~spill:(Journal.spill_path base) service) budget
  in
  List.iter
    (fun (principal, partitions) ->
      match store with
      | Some s when shared -> Store.register s ~principal ~partitions
      | _ -> register_reference service ~principal ~partitions)
    population;
  (service, store)

(* Run a history of (principal, action) steps — action [Array.length
   queries] resets — checkpointing every [ckpt_every] steps and enforcing
   the budget at every commit boundary; under group commit, batches of
   three. Returns the decisions, every checkpoint image, the final
   snapshot, the active segment, and the snapshot a second, identically
   registered service recovers from the journal. *)
let run_population ~shared ?budget ~ckpt_every ~group history base =
  let service, store = populate ~shared ?budget ~journal:base base in
  let names = Array.of_list (List.map fst population) in
  let decisions = ref [] and ckpts = ref [] in
  let boundary () =
    (if group then
       match Service.batch_end service with
       | Ok () -> ()
       | Error r -> Alcotest.failf "batch aborted: %s" (Guard.refusal_to_tag r));
    Option.iter Store.enforce store
  in
  List.iteri
    (fun i (pi, ai) ->
      if group && i mod 3 = 0 then Service.batch_begin service;
      let principal = names.(pi) in
      (if ai >= Array.length queries then Service.reset service ~principal
       else decisions := Service.submit service ~principal queries.(ai) :: !decisions);
      if (not group) || i mod 3 = 2 then boundary ();
      if (i + 1) mod ckpt_every = 0 && not (Service.batch_active service) then begin
        (match Service.checkpoint service with
        | Ok () -> ckpts := read_file (base ^ ".ckpt") :: !ckpts
        | Error msg -> Alcotest.failf "checkpoint failed: %s" msg);
        Option.iter Store.compact store
      end)
    history;
  if Service.batch_active service then boundary ();
  let snap = Service.snapshot service in
  teardown service store;
  let recovering, rstore = populate ~shared ?budget base in
  (match Service.recover recovering ~journal:base with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
  let recovered = Service.snapshot recovering in
  teardown recovering rstore;
  (List.rev !decisions, List.rev !ckpts, snap, read_file base, recovered)

let prop_shared_fresh_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"shared policy + fresh registration ≡ per-principal Policy.make, all resident"
       QCheck.(
         quad
           (list_of_size Gen.(2 -- 24)
              (pair (int_bound (List.length population - 1)) (int_bound (Array.length queries))))
           (int_range 1 4) (int_range 1 6) bool)
       (fun (history, budget, ckpt_every, group) ->
         let reference =
           with_tmp_base (fun b -> run_population ~shared:false ~ckpt_every ~group history b)
         in
         let ((_, _, snap, _, recovered) as subject) =
           with_tmp_base (fun b ->
               run_population ~shared:true ~budget:(Store.Principals budget) ~ckpt_every ~group
                 history b)
         in
         reference = subject && recovered = snap))

(* Reload compiles the new configuration's policies afresh: a principal
   whose partition list is unchanged (structurally — the resolved lists
   are rebuilt) carries its state, a reshaped one starts pristine. *)
let test_reload_carries_unchanged () =
  let policy principals = { Disclosure.Policyfile.views = [ v1; v2; v3 ]; principals } in
  let before =
    policy
      [
        ("crm-app", [ ("meetings", [ "V1"; "V2" ]); ("contacts", [ "V3" ]) ]);
        ("other-crm", [ ("meetings", [ "V1"; "V2" ]); ("contacts", [ "V3" ]) ]);
      ]
  in
  let after =
    policy
      [
        ("crm-app", [ ("meetings", [ "V1"; "V2" ]); ("contacts", [ "V3" ]) ]);
        ("other-crm", [ ("all", [ "V1"; "V2"; "V3" ]) ]);
      ]
  in
  let server =
    Server.create
      ~config:{ Server.default_config with Server.domains = 1; resident = Some (Store.Principals 1) }
      (pipeline ())
  in
  (match Disclosure.Policyfile.resolve before with
  | Ok resolved ->
    List.iter (fun (principal, partitions) -> Server.register server ~principal ~partitions) resolved
  | Error e -> Alcotest.failf "resolve: %s" e);
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      List.iter
        (fun principal ->
          check_bool "narrowed to contacts" true
            (Server.submit_sync server ~principal q_contacts = Monitor.Answered))
        [ "crm-app"; "other-crm" ];
      Server.drain server;
      let state p = List.assoc p (Server.snapshot server) in
      let crm = state "crm-app" in
      (match Server.reload server after with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reload: %s" e);
      Server.drain server;
      check_bool "unchanged list carries its state" true (state "crm-app" = crm);
      check_bool "reshaped list starts pristine" true
        (state "other-crm" = Monitor.pristine_state ~partitions:1))

(* A checkpoint copies spilled records, but only after checking them: a
   flipped byte (CRC) or a record under another principal's name fails the
   checkpoint closed and leaves the previous one in place. *)
let test_checkpoint_refuses_corrupt_spill () =
  with_tmp_base (fun base ->
      let service = Service.create ~journal:base (pipeline ()) in
      let store = Store.create ~budget:(Store.Principals 1) ~spill:(Journal.spill_path base) service in
      let crm = partitions "crm-app" in
      List.iter
        (fun principal -> Store.register store ~principal ~partitions:crm)
        [ "app-a"; "app-b"; "app-c" ];
      List.iter
        (fun principal ->
          ignore (Service.submit service ~principal q_contacts);
          Store.enforce store)
        [ "app-a"; "app-b"; "app-c" ];
      check_int "two spilled" 2 (Store.spilled store);
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "clean checkpoint: %s" msg);
      let ckpt = read_file (base ^ ".ckpt") in
      let spill = base ^ ".spill" in
      let good = read_file spill in
      let write s = Out_channel.with_open_bin spill (fun oc -> Out_channel.output_string oc s) in
      let refuses what image =
        write image;
        (match Service.checkpoint service with
        | Error _ -> ()
        | Ok () -> Alcotest.failf "%s: checkpoint over a corrupt spill record succeeded" what);
        check_bool (what ^ ": previous checkpoint intact") true
          (String.equal ckpt (read_file (base ^ ".ckpt")))
      in
      let flipped = Bytes.of_string good in
      let i = String.length good - 8 in
      Bytes.set flipped i (Char.chr (Char.code good.[i] lxor 0x40));
      refuses "flipped byte" (Bytes.to_string flipped);
      (* The two spilled records differ only in the name, so exchanging the
         records keeps every CRC, length and offset valid. *)
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      let lines = String.split_on_char '\n' good in
      let line_of name = List.find (fun l -> contains l ("\t" ^ name ^ "\t")) lines in
      let a = line_of "app-a" and b = line_of "app-b" in
      refuses "records under each other's names"
        (String.concat "\n"
           (List.map (fun l -> if l = a then b else if l = b then a else l) lines));
      write good;
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "repaired checkpoint: %s" msg);
      Store.close store;
      Service.close service)

let () =
  Alcotest.run "disclosure-store"
    [
      ( "store",
        [
          Alcotest.test_case "budget validation and single tier" `Quick
            test_create_validation;
          Alcotest.test_case "spill file truncated at create" `Quick
            test_spill_truncated_at_create;
          Alcotest.test_case "eviction, spill, fault-in" `Quick
            test_eviction_and_fault_in;
          Alcotest.test_case "fresh tier: pristine eviction is zero-I/O" `Quick
            test_fresh_tier_zero_io;
          Alcotest.test_case "tiers partition the population" `Quick
            test_stats_invariant;
          Oracle.slice "differential matrix (budgets × cadences)"
            ~pin:(fun c ->
              {
                (Oracle.fixed_batches c) with
                Oracle.resident = Some (1 + (c.Oracle.shards mod 3));
                checkpoint = At 8;
              })
            ~pin_twin:(fun c -> { c with resident = None });
          Alcotest.test_case "differential under group commit" `Quick
            test_group_commit_differential;
          Alcotest.test_case "spill fault keeps the principal resident" `Quick
            test_spill_fault_keeps_resident;
          Alcotest.test_case "fault-in fault refuses fail-closed" `Quick
            test_fault_in_fault_refuses;
          Alcotest.test_case "corrupt spill record fails closed" `Quick
            test_corrupt_spill_fails_closed;
          Alcotest.test_case "reset reaches spilled principals" `Quick
            test_reset_spilled_principal;
          Alcotest.test_case "recovery replays through the tier" `Quick
            test_recover_through_tier;
          Alcotest.test_case "spill compaction repoints live records" `Quick
            test_compaction;
          Alcotest.test_case "byte budget resolves to a principal count" `Quick
            test_bytes_budget;
          Oracle.slice "tiered ≡ always-resident (decisions, journal, checkpoint, snapshot)"
            ~pin:(fun c ->
              { (Oracle.fixed_batches c) with Oracle.resident = Some 1; checkpoint = At 8 })
            ~pin_twin:(fun c -> { c with resident = None });
          Alcotest.test_case "equal partition lists share one policy" `Quick
            test_policy_interned;
          Alcotest.test_case "registration goes to the fresh tier" `Quick test_register_fresh;
          Alcotest.test_case "byte estimate counts the shared policy once" `Quick
            test_bytes_estimate_excludes_policy;
          prop_shared_fresh_differential;
          Alcotest.test_case "reload carries only unchanged lists" `Quick
            test_reload_carries_unchanged;
          Alcotest.test_case "checkpoint refuses a corrupt spill record" `Quick
            test_checkpoint_refuses_corrupt_spill;
        ] );
    ]
