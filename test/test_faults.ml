(* Fault-injection suite for the fail-closed reference monitor.

   Its own executable (the fault hooks are global): arms every fault at
   every pipeline stage and asserts the service's three robustness
   invariants:

   1. fail-closed — a fault anywhere in the submission path yields a
      [Refused] decision, never an escaping exception;
   2. state-unchanged-on-refusal — a refusal for any non-policy reason
      leaves the principal's monitor bit-identical;
   3. alive-mask monotonicity — across any interleaving of submissions,
      faults, and refusals, the alive mask only ever loses bits (except at
      an explicit reset). *)

open Support

module Guard = Disclosure.Guard
module Faults = Disclosure.Faults
module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Pipeline = Disclosure.Pipeline
module Journal = Disclosure.Journal

(* The principal under test: two partitions, so an answer can narrow it. *)
let app = "crm-app"

let all_faults = [ Faults.Exhaust_fuel; Faults.Expire_deadline; Faults.Raise "injected" ]

let fault_label stage fault =
  Format.asprintf "%a/%a" Faults.pp_stage stage Faults.pp_fault fault

(* Invariants 1 and 2, exhaustively: every fault at every stage refuses and
   leaves the monitor bit-identical; clearing the fault restores service. *)
let test_fault_matrix () =
  List.iter
    (fun stage ->
      List.iter
        (fun fault ->
          let name = fault_label stage fault in
          let service = make_service () in
          (* Establish non-trivial state: one answered query narrowed the
             wall to the meetings side. *)
          (match Service.submit service ~principal:app q_slots with
          | Monitor.Answered -> ()
          | d -> Alcotest.failf "%s: setup not answered: %a" name Monitor.pp_decision d);
          let before = Service.snapshot service in
          let decision =
            Faults.with_fault stage fault (fun () ->
                Service.submit service ~principal:app q_meetings)
          in
          (match decision with
          | Monitor.Refused reason ->
            if Guard.refusal_equal reason Guard.Policy then
              Alcotest.failf "%s: fault surfaced as a policy refusal" name
          | Monitor.Answered -> Alcotest.failf "%s: fault was answered" name);
          if Service.snapshot service <> before then
            Alcotest.failf "%s: refusal mutated monitor state" name;
          (* Recovery: once disarmed, the same query goes through. *)
          match Service.submit service ~principal:app q_meetings with
          | Monitor.Answered -> ()
          | d ->
            Alcotest.failf "%s: not answered after clearing: %a" name
              Monitor.pp_decision d)
        all_faults)
    Faults.submission_stages

(* The same matrix through the pre-labeled entry point (no labeling stages,
   but admission, decision, and journaling still trip). *)
let test_fault_matrix_submit_label () =
  let label_of service = Pipeline.label (Service.pipeline service) q_meetings in
  List.iter
    (fun stage ->
      List.iter
        (fun fault ->
          let name = "submit_label " ^ fault_label stage fault in
          let service = make_service () in
          let label = label_of service in
          let before = Service.snapshot service in
          let decision =
            Faults.with_fault stage fault (fun () ->
                Service.submit_label service ~principal:app label)
          in
          (match stage with
          | Faults.Admission | Faults.Decide | Faults.Journal -> (
            match decision with
            | Monitor.Refused _ ->
              if Service.snapshot service <> before then
                Alcotest.failf "%s: refusal mutated monitor state" name
            | Monitor.Answered -> Alcotest.failf "%s: fault was answered" name)
          | _ -> (
            (* Labeling stages never run for a pre-computed label (and the
               maintenance stages are outside this matrix). *)
            match decision with
            | Monitor.Answered -> ()
            | Monitor.Refused _ -> Alcotest.failf "%s: unreached stage refused" name)))
        all_faults)
    Faults.submission_stages

(* Injected exhaustion surfaces with the same reason a real one would. *)
let test_fault_reasons () =
  let service = make_service () in
  (match
     Faults.with_fault Faults.Label Faults.Exhaust_fuel (fun () ->
         Service.submit service ~principal:app q_slots)
   with
  | Monitor.Refused (Guard.Resource Guard.Fuel) -> ()
  | d -> Alcotest.failf "expected fuel refusal, got %a" Monitor.pp_decision d);
  (match
     Faults.with_fault Faults.Minimize Faults.Expire_deadline (fun () ->
         Service.submit service ~principal:app q_slots)
   with
  | Monitor.Refused (Guard.Resource Guard.Deadline) -> ()
  | d -> Alcotest.failf "expected deadline refusal, got %a" Monitor.pp_decision d);
  match
    Faults.with_fault Faults.Dissect (Faults.Raise "bug #42") (fun () ->
        Service.submit service ~principal:app q_slots)
  with
  | Monitor.Refused (Guard.Fault msg) ->
    let has_needle =
      let needle = "bug #42" and n = 7 in
      let rec scan i =
        i + n <= String.length msg && (String.sub msg i n = needle || scan (i + 1))
      in
      scan 0
    in
    if not has_needle then Alcotest.failf "fault message lost the cause: %s" msg
  | d -> Alcotest.failf "expected fault refusal, got %a" Monitor.pp_decision d

(* Real (non-injected) exhaustion: a hard self-join under a tiny budget. *)
let hard_query =
  let v i = Cq.Term.Var (Printf.sprintf "a%d" i) in
  let body =
    List.init 10 (fun i ->
        Cq.Atom.make "Meetings" [ v (i mod 4); v ((i + 1) mod 4) ])
  in
  Cq.Query.make ~name:"Q" ~head:[] ~body ()

let test_real_fuel_exhaustion () =
  let service = make_service ~limits:(Guard.limits ~fuel:5 ()) () in
  let before = Service.snapshot service in
  (match Service.submit service ~principal:app hard_query with
  | Monitor.Refused (Guard.Resource Guard.Fuel) -> ()
  | d -> Alcotest.failf "expected fuel exhaustion, got %a" Monitor.pp_decision d);
  Alcotest.(check bool) "state untouched" true (Service.snapshot service = before)

let test_real_deadline_expiry () =
  let service = make_service ~limits:(Guard.limits ~deadline:1e-9 ()) () in
  let before = Service.snapshot service in
  (match Service.submit service ~principal:app hard_query with
  | Monitor.Refused (Guard.Resource Guard.Deadline) -> ()
  | d -> Alcotest.failf "expected deadline expiry, got %a" Monitor.pp_decision d);
  Alcotest.(check bool) "state untouched" true (Service.snapshot service = before)

(* Journal faults refuse before commit: the journal never trails the
   monitor, so a post-fault recovery reproduces the exact live state. *)
let test_journal_fault_keeps_replay_equivalent () =
  with_tmp_base (fun path ->
      let service = make_service ~journal:path () in
      ignore (Service.submit service ~principal:app q_slots);
      let decision =
        Faults.with_fault Faults.Journal (Faults.Raise "disk full") (fun () ->
            Service.submit service ~principal:app q_meetings)
      in
      (match decision with
      | Monitor.Refused (Guard.Fault _) -> ()
      | d -> Alcotest.failf "expected journal fault, got %a" Monitor.pp_decision d);
      ignore (Service.submit service ~principal:app q_meetings);
      let live = Service.snapshot service in
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Alcotest.(check bool) "replay = live despite journal fault" true
        (Service.snapshot fresh = live))

(* A fault between buffering a record and flushing it (what ENOSPC mid-append
   looks like): the decision is refused and the monitor untouched, and — the
   regression — the partially-appended bytes are rolled back, so the next
   successful append starts a clean record and recovery replays the journal
   instead of failing closed on a merged line. *)
let test_journal_flush_fault_rolls_back () =
  with_tmp_base (fun path ->
      let service = make_service ~journal:path () in
      ignore (Service.submit service ~principal:app q_slots);
      let before = Service.snapshot service in
      (match
         Faults.with_fault Faults.Journal_flush (Faults.Raise "disk full") (fun () ->
             Service.submit service ~principal:app q_meetings)
       with
      | Monitor.Refused (Guard.Fault _) -> ()
      | d -> Alcotest.failf "expected a fault refusal, got %a" Monitor.pp_decision d);
      Alcotest.(check bool) "monitor untouched by the failed append" true
        (Service.snapshot service = before);
      ignore (Service.submit service ~principal:app q_meetings);
      let live = Service.snapshot service in
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r ->
        Alcotest.(check int) "exactly the committed decisions replay" 2
          r.Service.applied;
        Alcotest.(check bool) "no torn tail left behind" true
          (not r.Service.torn_tail)
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Alcotest.(check bool) "replay = live despite the flush fault" true
        (Service.snapshot fresh = live))

(* Group commit under a covering-flush fault: the whole batch aborts —
   every monitor touched inside the batch is restored to its pre-batch
   state, the segment is rolled back to the durable frontier, and
   [batch_end] returns the fault. Recovery then sees exactly the records
   earlier flushes covered, and the service keeps serving afterwards. *)
let test_group_commit_flush_fault_aborts_batch () =
  with_tmp_base (fun path ->
      let service = make_service ~journal:path () in
      (* One durably committed batch first. *)
      Service.batch_begin service;
      ignore (Service.submit service ~principal:app q_slots);
      (match Service.batch_end service with
      | Ok () -> ()
      | Error r ->
        Alcotest.failf "clean batch_end refused: %s" (Guard.refusal_to_tag r));
      Alcotest.(check int) "one covering flush" 1 (Service.flush_count service);
      let durable = Service.snapshot service in
      (* A batch whose covering flush fails. *)
      Service.batch_begin service;
      ignore (Service.submit service ~principal:app q_meetings);
      Alcotest.(check bool) "batch decisions commit inline before the flush" true
        (Service.snapshot service <> durable);
      (match
         Faults.with_fault Faults.Journal_flush (Faults.Raise "disk full") (fun () ->
             Service.batch_end service)
       with
      | Error (Guard.Fault _) -> ()
      | Ok () -> Alcotest.fail "covering-flush fault must abort the batch"
      | Error r -> Alcotest.failf "expected a fault, got %s" (Guard.refusal_to_tag r));
      Alcotest.(check bool) "whole batch rolled back to the pre-batch state" true
        (Service.snapshot service = durable);
      (* The service keeps working after the abort (per-decision commits). *)
      ignore (Service.submit service ~principal:app q_meetings);
      let live = Service.snapshot service in
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r ->
        Alcotest.(check int) "only flush-covered records replay" 2 r.Service.applied;
        Alcotest.(check bool) "no torn tail left by the aborted batch" true
          (not r.Service.torn_tail)
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Alcotest.(check bool) "recovery = live after the aborted batch" true
        (Service.snapshot fresh = live))

(* Maintenance-path faults: a failed checkpoint (at the tmp-write or the
   rename) returns [Error], leaves the previous checkpoint and every segment
   intact, and never touches the monitor; once disarmed, checkpointing
   works again and recovery still matches the live state. *)
let test_checkpoint_faults_fail_safe () =
  with_tmp_base (fun path ->
      let service = make_service ~journal:path () in
      ignore (Service.submit service ~principal:app q_slots);
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let good_ckpt = read_file (Journal.ckpt_path path) in
      ignore (Service.submit service ~principal:app q_meetings);
      let before = Service.snapshot service in
      List.iter
        (fun stage ->
          (match
             Faults.with_fault stage (Faults.Raise "disk full") (fun () ->
                 Service.checkpoint service)
           with
          | Error _ -> ()
          | Ok () ->
            Alcotest.failf "checkpoint with a %a fault must fail" Faults.pp_stage stage);
          Alcotest.(check bool) "monitor untouched by failed checkpoint" true
            (Service.snapshot service = before);
          Alcotest.(check string) "previous checkpoint left intact" good_ckpt
            (read_file (Journal.ckpt_path path)))
        [ Faults.Rotate; Faults.Checkpoint; Faults.Ckpt_rename ];
      (* Disarmed, the same checkpoint goes through, and recovery agrees. *)
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Alcotest.(check bool) "recovery matches despite faulted checkpoints" true
        (Service.snapshot fresh = before))

(* A size-triggered rotation failure must not surface as a refusal: the
   record is already durable in the active segment, so the decision stands
   and the journal keeps appending where it was. *)
let test_rotation_fault_never_refuses () =
  with_tmp_base (fun path ->
      let service =
        let s = Service.create ~journal:path ~segment_bytes:16 (pipeline ()) in
        List.iter
          (fun (principal, partitions) -> Service.register s ~principal ~partitions)
          deployment;
        s
      in
      (match
         Faults.with_fault Faults.Rotate (Faults.Raise "rename failed") (fun () ->
             Service.submit service ~principal:app q_slots)
       with
      | Monitor.Answered -> ()
      | d ->
        Alcotest.failf "rotation failure must not refuse the decision, got %a"
          Monitor.pp_decision d);
      ignore (Service.submit service ~principal:app q_meetings);
      let live = Service.snapshot service in
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r -> Alcotest.(check int) "both decisions durable" 2 r.Service.applied
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Alcotest.(check bool) "replay = live despite rotation fault" true
        (Service.snapshot fresh = live))

(* Invariant 3: the alive mask is monotonically non-increasing across any
   interleaving of queries, injected faults, and refusals. *)
let test_alive_mask_monotone () =
  let queries =
    [|
      q_slots;
      q_meetings;
      pq "Q(y) :- Meetings(x, y)";
      pq "Q(x, y, z) :- Contacts(x, y, z)";
      pq "Q() :- Unknown(u)";
      hard_query;
    |]
  in
  let stages = Array.of_list Faults.submission_stages in
  let faults = Array.of_list all_faults in
  let rng = Random.State.make [| 0xFA017 |] in
  for _run = 1 to 50 do
    let service =
      make_service ~limits:(Guard.limits ~fuel:100_000 ()) ()
    in
    let monitor_mask () =
      (List.assoc app (Service.snapshot service)).Monitor.alive_mask
    in
    let mask = ref (monitor_mask ()) in
    for _step = 1 to 30 do
      let q = queries.(Random.State.int rng (Array.length queries)) in
      let submit () = ignore (Service.submit service ~principal:app q) in
      (if Random.State.int rng 3 = 0 then
         let stage = stages.(Random.State.int rng (Array.length stages)) in
         let fault = faults.(Random.State.int rng (Array.length faults)) in
         Faults.with_fault stage fault submit
       else submit ());
      let mask' = monitor_mask () in
      if mask' land lnot !mask <> 0 then
        Alcotest.failf "alive mask gained bits: %#x -> %#x" !mask mask';
      mask := mask'
    done
  done

(* Tiered-store stages (outside [submission_stages]: they only trip once a
   [Store] is installed). A [Spill] fault must abort the eviction without
   refusing anything — the touching query still answers and the dirty
   principal stays resident, bit-identical. A [Fault_in] fault must refuse
   the touching query with the typed [Resource (Spill _)] reason and leave
   every monitor bit-identical — the suite's three invariants, through the
   tier. *)
let test_tiered_store_fault_matrix () =
  List.iter
    (fun fault ->
      let name = Format.asprintf "tier/%a" Faults.pp_fault fault in
      with_tmp_base (fun base ->
          let service = Service.create (pipeline ()) in
          let store =
            Store.create ~budget:(Store.Principals 1) ~spill:(Journal.spill_path base) service
          in
          List.iter
            (fun principal -> Store.register store ~principal ~partitions:(partitions principal))
            [ app; "calendar-app" ];
          (match Service.submit service ~principal:app q_slots with
          | Monitor.Answered -> ()
          | d -> Alcotest.failf "%s: setup not answered: %a" name Monitor.pp_decision d);
          (* Spill: the eviction forced by the other principal's touch trips
             the armed fault and aborts; nothing refuses. *)
          let before = Service.snapshot service in
          (match
             Faults.with_fault Faults.Spill fault (fun () ->
                 Service.submit service ~principal:"calendar-app" q_slots)
           with
          | Monitor.Answered -> ()
          | d ->
            Alcotest.failf "%s: a spill fault must never refuse, got %a" name
              Monitor.pp_decision d);
          if
            Service.resident_monitor service app = None
            || List.assoc app (Service.snapshot service) <> List.assoc app before
          then Alcotest.failf "%s: aborted eviction touched the dirty principal" name;
          (* Disarmed, enforcement spills one of the two dirty principals
             (both have answered, so the victim's record is a real spill);
             an armed fault-in fault then refuses its next touch, typed. *)
          Store.enforce store;
          if Store.resident store > 1 then
            Alcotest.failf "%s: eviction did not resume once disarmed" name;
          let victim, probe =
            if Service.resident_monitor service app = None then (app, q_meetings)
            else ("calendar-app", q_slots)
          in
          let before = Service.snapshot service in
          (match
             Faults.with_fault Faults.Fault_in fault (fun () ->
                 Service.submit service ~principal:victim probe)
           with
          | Monitor.Refused (Guard.Resource (Guard.Spill _)) -> ()
          | d ->
            Alcotest.failf "%s: expected a typed spill refusal, got %a" name
              Monitor.pp_decision d);
          if Service.snapshot service <> before then
            Alcotest.failf "%s: spill refusal mutated monitor state" name;
          (* Recovery: once disarmed, the same touch faults in and answers. *)
          (match Service.submit service ~principal:victim probe with
          | Monitor.Answered -> ()
          | d ->
            Alcotest.failf "%s: not answered after clearing: %a" name
              Monitor.pp_decision d);
          Store.close store))
    all_faults

(* The injection bookkeeping itself. *)
let test_harness_bookkeeping () =
  Faults.clear ();
  Alcotest.(check bool) "nothing armed" true (Faults.armed Faults.Label = None);
  Faults.inject Faults.Label Faults.Exhaust_fuel;
  Alcotest.(check bool) "armed" true (Faults.armed Faults.Label = Some Faults.Exhaust_fuel);
  (try Faults.trip Faults.Label with Cq.Budget.Exhausted Cq.Budget.Fuel -> ());
  Alcotest.(check bool) "still armed after trip" true
    (Faults.armed Faults.Label = Some Faults.Exhaust_fuel);
  Faults.trip Faults.Decide;
  (* other stages unaffected *)
  Faults.clear_stage Faults.Label;
  Alcotest.(check bool) "cleared" true (Faults.armed Faults.Label = None);
  (* with_fault disarms even when the body raises. *)
  (try
     Faults.with_fault Faults.Decide (Faults.Raise "x") (fun () ->
         Faults.trip Faults.Decide)
   with Faults.Injected _ -> ());
  Alcotest.(check bool) "with_fault disarms on raise" true
    (Faults.armed Faults.Decide = None)

(* The one append-only writer under its own fault stage: a failed commit
   rolls the file back to the frontier and leaves the writer usable; a
   seal renames the file under the next segment index and opens a fresh
   one; a rollback that cannot cut the file closes the writer for good,
   so nothing is ever appended after garbage. *)
let test_writer_rollback_seal_close () =
  with_tmp_base (fun path ->
      let read () = In_channel.with_open_bin path In_channel.input_all in
      let w = Journal.Writer.create ~stage:Faults.Journal_flush ~segment:1 path in
      let r1 = Journal.encode [ "a"; "-"; "answered" ] in
      Journal.Writer.write w r1;
      (match
         Faults.with_fault Faults.Journal_flush (Faults.Raise "disk full") (fun () ->
             Journal.Writer.write w (Journal.encode [ "b"; "-"; "answered" ]))
       with
      | () -> Alcotest.fail "a faulted commit must raise"
      | exception Faults.Injected _ -> ());
      Alcotest.(check string) "rolled back to the frontier" r1 (read ());
      Alcotest.(check (pair int int)) "frontier unchanged" (1, String.length r1)
        (Journal.Writer.position w);
      Journal.Writer.write w r1;
      Journal.Writer.seal w;
      Alcotest.(check string) "sealed as segment 1" (r1 ^ r1)
        (In_channel.with_open_bin (Journal.segment_path path 1) In_channel.input_all);
      Alcotest.(check (pair int int)) "fresh active file" (2, 0) (Journal.Writer.position w);
      Journal.Writer.append w r1;
      Sys.remove path;
      Journal.Writer.rollback w;
      Alcotest.(check bool) "failed rollback closes the writer" false (Journal.Writer.is_open w);
      (match Journal.Writer.write w r1 with
      | () -> Alcotest.fail "a closed writer must refuse appends"
      | exception Sys_error _ -> ());
      Alcotest.(check bool) "nothing appended after the failure" false (Sys.file_exists path))

let () =
  Alcotest.run "disclosure-faults"
    [
      ( "faults",
        [
          Alcotest.test_case "harness bookkeeping" `Quick test_harness_bookkeeping;
          Alcotest.test_case "every fault at every stage" `Quick test_fault_matrix;
          Alcotest.test_case "matrix via submit_label" `Quick
            test_fault_matrix_submit_label;
          Alcotest.test_case "injected reasons match real ones" `Quick test_fault_reasons;
          Alcotest.test_case "real fuel exhaustion" `Quick test_real_fuel_exhaustion;
          Alcotest.test_case "real deadline expiry" `Quick test_real_deadline_expiry;
          Alcotest.test_case "journal fault keeps replay equivalent" `Quick
            test_journal_fault_keeps_replay_equivalent;
          Alcotest.test_case "group-commit flush fault aborts the whole batch" `Quick
            test_group_commit_flush_fault_aborts_batch;
          Alcotest.test_case "journal flush fault rolls the segment back" `Quick
            test_journal_flush_fault_rolls_back;
          Alcotest.test_case "checkpoint faults fail safe" `Quick
            test_checkpoint_faults_fail_safe;
          Alcotest.test_case "journal writer: rollback, seal, close for good" `Quick
            test_writer_rollback_seal_close;
          Alcotest.test_case "rotation fault never refuses" `Quick
            test_rotation_fault_never_refuses;
          Alcotest.test_case "alive mask monotone under faults" `Quick
            test_alive_mask_monotone;
          Alcotest.test_case "tiered-store stages: spill aborts, fault-in refuses"
            `Quick test_tiered_store_fault_matrix;
        ] );
    ]
