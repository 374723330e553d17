(* Crash-torture suite for the v2 decision journal (its own executable: it
   performs a few thousand recoveries, which would bloat the main suite).

   The property, byte-exhaustively: for a journal holding a known history,

   - truncating the file at EVERY byte offset (what a crash mid-append can
     leave behind) must recover to the exact state after the last fully
     committed record — the torn tail is dropped and reported, never
     misapplied;
   - flipping EVERY byte of a record (bit rot, not a crash) must either
     leave recovery exact-prefix-equivalent or produce a typed fail-closed
     refusal naming the file — never a wrong monitor state;
   - the checkpoint file is written atomically, so ANY damage to it (every
     truncation, every byte flip) is a typed [`Corrupt_checkpoint] refusal. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Journal = Disclosure.Journal
module Guard = Disclosure.Guard

(* The deterministic history: one journal record per step. [run ~after]
   calls [after i service] after step [i] (1-based), e.g. to checkpoint. *)
let history : (string * Cq.Query.t option) list =
  [
    ("crm-app", Some q_contacts);
    (hostile, Some q_slots);
    ("calendar-app", Some q_meetings);
    ("crm-app", None) (* reset *);
    ("crm-app", Some q_slots);
    ("calendar-app", Some q_slots);
    ("crm-app", Some q_contacts);
    (hostile, Some q_meetings);
  ]

let n_records = List.length history

(* Run the history against [service], returning states.(i) = snapshot after
   the first [i] records (states.(0) = initial). *)
let run_history ?(after = fun _ _ -> ()) service =
  let states = Array.make (n_records + 1) (Service.snapshot service) in
  List.iteri
    (fun i (principal, q) ->
      (match q with
      | Some q -> ignore (Service.submit service ~principal q)
      | None -> Service.reset service ~principal);
      states.(i + 1) <- Service.snapshot service;
      after (i + 1) service)
    history;
  states

let recover_fresh base =
  let fresh = make_service () in
  Service.recover fresh ~journal:base |> Result.map (fun r -> (r, Service.snapshot fresh))

(* --- truncation: every byte offset ------------------------------------ *)

let test_truncate_every_offset () =
  with_tmp_base (fun base ->
      let service = make_service ~journal:base () in
      let states = run_history service in
      Service.close service;
      let whole = read_file base in
      Alcotest.(check int) "every record committed" n_records (count_newlines whole);
      for cut = 0 to String.length whole do
        write_file base (String.sub whole 0 cut);
        let committed = count_newlines (String.sub whole 0 cut) in
        match recover_fresh base with
        | Error e ->
          Alcotest.failf "cut at %d: truncation must always recover, got %s" cut
            (Service.recovery_error_to_string e)
        | Ok (r, snap) ->
          if r.Service.applied <> committed then
            Alcotest.failf "cut at %d: applied %d, expected %d committed records" cut
              r.Service.applied committed;
          if snap <> states.(committed) then
            Alcotest.failf "cut at %d: recovered state is not the exact prefix state" cut;
          let expect_torn = cut > 0 && whole.[cut - 1] <> '\n' in
          if r.Service.torn_tail <> expect_torn then
            Alcotest.failf "cut at %d: torn_tail reported %b, expected %b" cut
              r.Service.torn_tail expect_torn
      done)

(* --- crash / restart / crash: append after a torn-tail recovery -------- *)

(* The production restart sequence (Server.create then Server.recover on the
   same base): recover over a torn tail, keep serving on the same active
   segment, crash, recover again. Recovery must truncate the tolerated torn
   record — otherwise the first post-recovery append merges with the partial
   bytes into a line no parser accepts, and the second recovery fails
   closed, losing every post-restart committed decision. *)
let test_append_after_torn_recovery () =
  with_tmp_base (fun base ->
      let service = make_service ~journal:base () in
      ignore (run_history service);
      Service.close service;
      let whole = read_file base in
      for cut = 1 to String.length whole - 1 do
        if whole.[cut - 1] <> '\n' then begin
          write_file base (String.sub whole 0 cut);
          let committed = count_newlines (String.sub whole 0 cut) in
          (* Restart in production order: open the journal for appending
             first, then recover over it. *)
          let restarted = make_service ~journal:base () in
          (match Service.recover restarted ~journal:base with
          | Error e ->
            Alcotest.failf "cut at %d: first recovery failed: %s" cut
              (Service.recovery_error_to_string e)
          | Ok r ->
            if not r.Service.torn_tail then
              Alcotest.failf "cut at %d: torn tail not reported" cut);
          ignore (Service.submit restarted ~principal:"crm-app" q_slots);
          ignore (Service.submit restarted ~principal:"calendar-app" q_meetings);
          let live = Service.snapshot restarted in
          Service.close restarted;
          match recover_fresh base with
          | Error e ->
            Alcotest.failf "cut at %d: recovery after post-torn appends failed: %s"
              cut
              (Service.recovery_error_to_string e)
          | Ok (r, snap) ->
            if r.Service.applied <> committed + 2 then
              Alcotest.failf "cut at %d: applied %d, expected %d" cut
                r.Service.applied (committed + 2);
            if r.Service.torn_tail then
              Alcotest.failf "cut at %d: tail must be clean after truncation" cut;
            if snap <> live then
              Alcotest.failf "cut at %d: second recovery diverges from the live state"
                cut
        end
      done)

(* --- group commit: torn batches recover to a whole-decision prefix ----- *)

(* Run the history under group commit (a covering flush every [batch]
   decisions), then torture the journal at every byte offset. The batched
   journal must be bit-identical to the per-decision journal, and any
   truncation — including mid-batch, where a crash tears records that were
   never individually flushed — must recover to the exact state after the
   last fully committed record, never a partial application of a batch. *)
let test_group_commit_truncate_every_offset () =
  with_tmp_base (fun base_plain ->
      with_tmp_base (fun base ->
          let plain = make_service ~journal:base_plain () in
          ignore (run_history plain);
          Service.close plain;
          let plain_journal = read_file base_plain in
          let batch = 3 in
          let service = make_service ~journal:base () in
          let states = Array.make (n_records + 1) (Service.snapshot service) in
          let finish_batch () =
            match Service.batch_end service with
            | Ok () -> ()
            | Error reason ->
              Alcotest.failf "batch_end refused: %s" (Disclosure.Guard.refusal_to_tag reason)
          in
          Service.batch_begin service;
          List.iteri
            (fun i (principal, q) ->
              (match q with
              | Some q -> ignore (Service.submit service ~principal q)
              | None -> Service.reset service ~principal);
              states.(i + 1) <- Service.snapshot service;
              if (i + 1) mod batch = 0 then begin
                finish_batch ();
                Service.batch_begin service
              end)
            history;
          finish_batch ();
          let flushes = Service.flush_count service in
          Service.close service;
          Alcotest.(check int) "one flush per batch" ((n_records + batch - 1) / batch)
            flushes;
          let whole = read_file base in
          Alcotest.(check bool) "batched journal is bit-identical to per-decision" true
            (String.equal whole plain_journal);
          for cut = 0 to String.length whole do
            write_file base (String.sub whole 0 cut);
            let committed = count_newlines (String.sub whole 0 cut) in
            match recover_fresh base with
            | Error e ->
              Alcotest.failf "cut at %d: torn group commit must always recover, got %s"
                cut
                (Service.recovery_error_to_string e)
            | Ok (r, snap) ->
              if r.Service.applied <> committed then
                Alcotest.failf "cut at %d: applied %d, expected %d committed records" cut
                  r.Service.applied committed;
              if snap <> states.(committed) then
                Alcotest.failf
                  "cut at %d: recovered state is not the whole-decision prefix" cut
          done))

(* --- byte flips: every byte, several patterns -------------------------- *)

let flip_patterns = [ 0x01; 0x80; 0xff ]

(* Flip every byte of the record on line [line] (0-based). Mid-file damage
   must refuse with a typed [`Corrupt_record]; damage to the final record
   may instead surface as a tolerated torn tail (e.g. flipping its
   newline), in which case the state must still be the exact prefix. *)
let torture_record ~line =
  with_tmp_base (fun base ->
      let service = make_service ~journal:base () in
      let states = run_history service in
      Service.close service;
      let whole = read_file base in
      let line_start =
        let rec nth_line i from =
          if i = 0 then from else nth_line (i - 1) (String.index_from whole from '\n' + 1)
        in
        nth_line line 0
      in
      let line_end = String.index_from whole line_start '\n' in
      for pos = line_start to line_end do
        List.iter
          (fun pattern ->
            let damaged = Bytes.of_string whole in
            Bytes.set damaged pos
              (Char.chr (Char.code whole.[pos] lxor pattern land 0xff));
            write_file base (Bytes.to_string damaged);
            match recover_fresh base with
            | Error e ->
              if e.Service.kind <> `Corrupt_record && e.Service.kind <> `Replay then
                Alcotest.failf "flip %#x at %d: unexpected error kind in %s" pattern pos
                  (Service.recovery_error_to_string e)
            | Ok (r, snap) ->
              (* Tolerated only as an exact prefix — never a wrong state. *)
              if r.Service.applied > n_records || snap <> states.(r.Service.applied)
              then
                Alcotest.failf
                  "flip %#x at %d: recovery accepted damage with a non-prefix state"
                  pattern pos;
              if line < n_records - 1 && r.Service.applied > line then
                Alcotest.failf
                  "flip %#x at %d: mid-file damage replayed past the damaged record"
                  pattern pos)
          flip_patterns
      done)

let test_flip_middle_record () = torture_record ~line:(n_records / 2)

let test_flip_final_record () = torture_record ~line:(n_records - 1)

let test_flip_first_record () = torture_record ~line:0

(* --- checkpoint damage: no torn-tail excuse ---------------------------- *)

let with_checkpointed_base f =
  with_tmp_base (fun base ->
      let service = make_service ~journal:base () in
      let states =
        run_history service
          ~after:(fun i service ->
            if i = 4 then
              match Service.checkpoint service with
              | Ok () -> ()
              | Error e -> Alcotest.fail e)
      in
      Service.close service;
      f base states)

let test_checkpoint_recovers_exactly () =
  with_checkpointed_base (fun base states ->
      match recover_fresh base with
      | Ok (r, snap) ->
        Alcotest.(check int) "only the tail replays" (n_records - 4) r.Service.applied;
        Alcotest.(check bool) "restored from the checkpoint" true
          r.Service.from_checkpoint;
        Alcotest.(check bool) "checkpoint + tail = live" true (snap = states.(n_records))
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e))

let test_checkpoint_damage_fails_closed () =
  with_checkpointed_base (fun base _states ->
      let ckpt = Journal.ckpt_path base in
      let whole = read_file ckpt in
      let check_refused what =
        match recover_fresh base with
        | Error e when e.Service.kind = `Corrupt_checkpoint ->
          if e.Service.file <> ckpt then
            Alcotest.failf "%s: error does not name the checkpoint file" what
        | Error e ->
          Alcotest.failf "%s: expected `Corrupt_checkpoint, got %s" what
            (Service.recovery_error_to_string e)
        | Ok _ -> Alcotest.failf "%s: damaged checkpoint must fail closed" what
      in
      (* Every truncation: the rename was atomic, so a short file can only
         be corruption, never a crash artifact. *)
      for cut = 0 to String.length whole - 1 do
        write_file ckpt (String.sub whole 0 cut);
        check_refused (Printf.sprintf "truncate at %d" cut)
      done;
      (* Every byte flip. *)
      for pos = 0 to String.length whole - 1 do
        List.iter
          (fun pattern ->
            let damaged = Bytes.of_string whole in
            Bytes.set damaged pos
              (Char.chr (Char.code whole.[pos] lxor pattern land 0xff));
            write_file ckpt (Bytes.to_string damaged);
            check_refused (Printf.sprintf "flip %#x at %d" pattern pos))
          flip_patterns
      done;
      (* Restored, recovery works again. *)
      write_file ckpt whole;
      match recover_fresh base with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e))

(* Truncating the post-checkpoint tail behaves exactly like truncating an
   un-checkpointed journal, offset by the checkpoint's coverage. *)
let test_truncate_tail_after_checkpoint () =
  with_checkpointed_base (fun base states ->
      let whole = read_file base in
      for cut = 0 to String.length whole do
        write_file base (String.sub whole 0 cut);
        let committed = count_newlines (String.sub whole 0 cut) in
        match recover_fresh base with
        | Error e ->
          Alcotest.failf "tail cut at %d: %s" cut (Service.recovery_error_to_string e)
        | Ok (r, snap) ->
          if r.Service.applied <> committed || snap <> states.(4 + committed) then
            Alcotest.failf "tail cut at %d: not the exact prefix state" cut
      done)

(* --- spill-file torture: the tiered store's scratch file ---------------- *)

(* A budget-1 tiered pair with crm-app's dirty state spilled: the calendar
   touch's fault-in displaces it. *)
let make_spilled spill =
  let service = Service.create (pipeline ()) in
  let store = Store.create ~budget:(Store.Principals 1) ~spill service in
  List.iter
    (fun principal -> Store.register store ~principal ~partitions:(partitions principal))
    [ "crm-app"; "calendar-app" ];
  (match Service.submit service ~principal:"crm-app" q_contacts with
  | Monitor.Answered -> ()
  | d -> Alcotest.failf "fixture: crm setup got %a" Monitor.pp_decision d);
  ignore (Service.submit service ~principal:"calendar-app" q_slots);
  Store.enforce store;
  if Service.resident_monitor service "crm-app" <> None then
    Alcotest.fail "fixture: crm-app did not spill";
  (service, store)

(* The always-resident twin's state once the probe query succeeds. *)
let spill_probe_expected () =
  let service = Service.create (pipeline ()) in
  List.iter
    (fun principal -> Service.register service ~principal ~partitions:(partitions principal))
    [ "crm-app"; "calendar-app" ];
  ignore (Service.submit service ~principal:"crm-app" q_contacts);
  ignore (Service.submit service ~principal:"calendar-app" q_slots);
  ignore (Service.submit service ~principal:"crm-app" q_contacts);
  Service.snapshot service

(* Flip every byte of the spill file under every pattern. A flip inside the
   spilled record must refuse the touching query with a typed
   [Resource (Spill _)] — never fault in a wrong state, never treat the
   principal as fresh — and repairing the byte must restore service. A flip
   outside the record (the file header) leaves the read untouched: the
   fault-in must then return the exact spilled state. *)
let test_spill_flip_every_byte () =
  let expected = spill_probe_expected () in
  with_tmp_base (fun base ->
      let spill = Journal.spill_path base in
      let fixture = ref (make_spilled spill) in
      let good = ref (read_file spill) in
      for pos = 0 to String.length !good - 1 do
        List.iter
          (fun pattern ->
            let service, store = !fixture in
            let damaged = Bytes.of_string !good in
            Bytes.set damaged pos
              (Char.chr (Char.code !good.[pos] lxor pattern land 0xff));
            write_file spill (Bytes.to_string damaged);
            match Service.submit service ~principal:"crm-app" q_contacts with
            | Monitor.Refused (Guard.Resource (Guard.Spill _)) ->
              (* Fail-closed: still spilled, nothing faulted in; the repair
                 is observed on the next touch. *)
              if Service.resident_monitor service "crm-app" <> None then
                Alcotest.failf "flip %#x at %d: refused yet faulted in" pattern pos;
              write_file spill !good
            | Monitor.Answered ->
              if Service.snapshot service <> expected then
                Alcotest.failf "flip %#x at %d: answered with a wrong state" pattern
                  pos;
              Store.close store;
              fixture := make_spilled spill;
              good := read_file spill
            | d ->
              Alcotest.failf "flip %#x at %d: unexpected decision %a" pattern pos
                Monitor.pp_decision d)
          flip_patterns
      done;
      let service, store = !fixture in
      write_file spill !good;
      (match Service.submit service ~principal:"crm-app" q_contacts with
      | Monitor.Answered -> ()
      | d -> Alcotest.failf "restored spill must fault in, got %a" Monitor.pp_decision d);
      if Service.snapshot service <> expected then
        Alcotest.fail "restored spill faulted in a wrong state";
      Store.close store)

(* Truncate the spill file at every offset: the spilled record is the file's
   suffix, so every proper truncation tears it and must refuse typed;
   rewriting the full bytes restores the exact state. *)
let test_spill_truncate_every_offset () =
  let expected = spill_probe_expected () in
  with_tmp_base (fun base ->
      let spill = Journal.spill_path base in
      let service, store = make_spilled spill in
      let good = read_file spill in
      for cut = 0 to String.length good - 1 do
        write_file spill (String.sub good 0 cut);
        (match Service.submit service ~principal:"crm-app" q_contacts with
        | Monitor.Refused (Guard.Resource (Guard.Spill _)) -> ()
        | d ->
          Alcotest.failf "cut at %d: a torn spill record must refuse, got %a" cut
            Monitor.pp_decision d);
        if Service.resident_monitor service "crm-app" <> None then
          Alcotest.failf "cut at %d: refused yet faulted in" cut
      done;
      write_file spill good;
      (match Service.submit service ~principal:"crm-app" q_contacts with
      | Monitor.Answered -> ()
      | d -> Alcotest.failf "rewritten spill must fault in, got %a" Monitor.pp_decision d);
      if Service.snapshot service <> expected then
        Alcotest.fail "rewritten spill faulted in a wrong state";
      Store.close store)

let () =
  Alcotest.run "disclosure-crash"
    [
      ( "torture",
        [
          Alcotest.test_case "truncate the journal at every byte offset" `Quick
            test_truncate_every_offset;
          Alcotest.test_case "append after a torn-tail recovery, then recover again"
            `Quick test_append_after_torn_recovery;
          Alcotest.test_case "truncate a group-commit journal at every byte offset"
            `Quick test_group_commit_truncate_every_offset;
          Alcotest.test_case "flip every byte of the first record" `Quick
            test_flip_first_record;
          Alcotest.test_case "flip every byte of a middle record" `Quick
            test_flip_middle_record;
          Alcotest.test_case "flip every byte of the final record" `Quick
            test_flip_final_record;
          Alcotest.test_case "checkpoint + tail recovers exactly" `Quick
            test_checkpoint_recovers_exactly;
          Alcotest.test_case "any checkpoint damage fails closed" `Quick
            test_checkpoint_damage_fails_closed;
          Alcotest.test_case "truncate the tail after a checkpoint" `Quick
            test_truncate_tail_after_checkpoint;
          Alcotest.test_case "flip every byte of a spill record" `Quick
            test_spill_flip_every_byte;
          Alcotest.test_case "truncate the spill file at every offset" `Quick
            test_spill_truncate_every_offset;
        ] );
    ]
