(* Tests for the multi-principal service layer and label serialization. *)

open Support

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Pipeline = Disclosure.Pipeline
module Label = Disclosure.Label
module Journal = Disclosure.Journal
module Guard = Disclosure.Guard
module Mclock = Disclosure.Mclock

let pq = Helpers.pq

let v1 = Helpers.sview "V1(x, y) :- Meetings(x, y)"
let v2 = Helpers.sview "V2(x) :- Meetings(x, y)"
let v3 = Helpers.sview "V3(x, y, z) :- Contacts(x, y, z)"

let make_service () =
  let service = Service.create (Pipeline.create [ v1; v2; v3 ]) in
  Service.register_stateless service ~principal:"calendar-app" ~views:[ v2 ];
  Service.register service ~principal:"crm-app"
    ~partitions:[ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
  service

let test_registration () =
  let service = make_service () in
  Alcotest.check
    Alcotest.(list string)
    "principals in order" [ "calendar-app"; "crm-app" ] (Service.principals service);
  Alcotest.check_raises "duplicate" (Service.Duplicate_principal "crm-app") (fun () ->
      Service.register_stateless service ~principal:"crm-app" ~views:[ v1 ])

let test_isolation () =
  (* Each principal has its own cumulative state. *)
  let service = make_service () in
  let contacts = pq "Q(x, y, z) :- Contacts(x, y, z)" in
  let meetings = pq "Q(x, y) :- Meetings(x, y)" in
  Helpers.check_bool "crm reads contacts" true
    (Service.submit service ~principal:"crm-app" contacts = Monitor.Answered);
  (* crm-app chose the contacts side of its wall. *)
  Helpers.check_bool "crm refused meetings" true
    (Service.submit service ~principal:"crm-app" meetings |> Monitor.is_refused);
  (* calendar-app is unaffected, but only sees V2-level data. *)
  Helpers.check_bool "calendar refused full meetings" true
    (Service.submit service ~principal:"calendar-app" meetings |> Monitor.is_refused);
  Helpers.check_bool "calendar reads slots" true
    (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)")
    = Monitor.Answered);
  Helpers.check_bool "stats" true (Service.stats service ~principal:"crm-app" = (1, 1))

let test_unknown_principal () =
  let service = make_service () in
  Alcotest.check_raises "unknown" (Service.Unknown_principal "nobody") (fun () ->
      ignore (Service.submit service ~principal:"nobody" (pq "Q(x) :- Meetings(x, y)")))

let test_reset () =
  let service = make_service () in
  ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
  Helpers.check_int "narrowed" 1 (List.length (Service.alive service ~principal:"crm-app"));
  Service.reset service ~principal:"crm-app";
  Helpers.check_int "restored" 2 (List.length (Service.alive service ~principal:"crm-app"));
  Helpers.check_bool "counters cleared" true
    (Service.stats service ~principal:"crm-app" = (0, 0))

let test_submit_label () =
  let service = make_service () in
  let p = Service.pipeline service in
  let l = Pipeline.label p (pq "Q(x) :- Meetings(x, y)") in
  Helpers.check_bool "pre-labeled submission" true
    (Service.submit_label service ~principal:"calendar-app" l = Monitor.Answered)

let test_answer_mode () =
  let service = make_service () in
  let db = Helpers.fig1_db in
  (* Allowed: answer computed through the views matches direct evaluation. *)
  (match Service.answer service ~principal:"calendar-app" ~db (pq "Q(x) :- Meetings(x, y)") with
  | None -> Alcotest.fail "expected an answer"
  | Some rel ->
    Alcotest.check Helpers.relation_testable "via views"
      (Cq.Eval.eval db (pq "Q(x) :- Meetings(x, y)"))
      rel);
  (* Refused: None, and the refusal is counted. *)
  Helpers.check_bool "refused query yields None" true
    (Service.answer service ~principal:"calendar-app" ~db (pq "Q(x, y) :- Meetings(x, y)")
    = None);
  Helpers.check_bool "stats reflect both" true
    (Service.stats service ~principal:"calendar-app" = (1, 1))

let test_label_roundtrip () =
  let p = Pipeline.create [ v1; v2; v3 ] in
  let queries =
    [
      "Q(x) :- Meetings(x, 'Cathy')";
      "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')";
      "Q(x) :- Unknown(x)";
    ]
  in
  List.iter
    (fun s ->
      let l = Pipeline.label p (pq s) in
      match Label.decode (Label.encode l) with
      | Ok l' -> Helpers.check_bool ("roundtrip " ^ s) true (l = l')
      | Error e -> Alcotest.fail e)
    queries

(* --- decision journal, snapshot, recovery ---------------------------- *)

let with_tmp_journal = Support.with_tmp_base

(* Rewrite a clean v2 journal as the pre-v2 TSV image of the same history,
   one raw [principal TAB label TAB decision] line per record, and return
   it. Replay still reads that format; nothing writes it any more. *)
let rewrite_as_legacy ?(torn = "") path =
  let records = fst (Result.get_ok (Journal.read_file path)) in
  let line r = String.concat "\t" r.Journal.fields ^ "\n" in
  let image = String.concat "" (List.map line records) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (image ^ torn));
  image

let make_journaled_service ?(segment_bytes = 0) path =
  let service =
    Service.create ~journal:path ~segment_bytes (Pipeline.create [ v1; v2; v3 ])
  in
  Service.register_stateless service ~principal:"calendar-app" ~views:[ v2 ];
  Service.register service ~principal:"crm-app"
    ~partitions:[ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
  service

let test_journal_lines () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x, y) :- Meetings(x, y)"));
      Service.reset service ~principal:"calendar-app";
      Service.close service;
      (* Raw framing: one self-delimiting v2 record per line. *)
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Helpers.check_int "three lines" 3 (List.length lines);
      List.iter
        (fun l ->
          Helpers.check_bool "v2 magic" true
            (String.length l > 3 && String.sub l 0 3 = "J2 "))
        lines;
      (* Decoded: checksummed [principal; label; decision] triples in order. *)
      match Journal.read_file path with
      | Error c -> Alcotest.failf "journal does not decode: %s" c.Journal.corrupt_reason
      | Ok (records, torn) ->
        Helpers.check_bool "no torn tail" true (torn = None);
        let decisions = List.map (fun r -> List.nth r.Journal.fields 2) records in
        Alcotest.check
          Alcotest.(list string)
          "decision column" [ "answered"; "refused:policy"; "reset" ] decisions)

let test_recover_replays () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      ignore (Service.submit service ~principal:"crm-app" (pq "Q(x, y) :- Meetings(x, y)"));
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      let live = Service.snapshot service in
      Service.close service;
      (* A fresh service over the same deployment, rebuilt from the log. *)
      with_tmp_journal (fun path2 ->
          let recovered = make_journaled_service path2 in
          (match Service.recover recovered ~journal:path with
          | Ok r ->
            Helpers.check_int "records applied" 3 r.Service.applied;
            Helpers.check_bool "no checkpoint involved" true
              (not r.Service.from_checkpoint);
            Helpers.check_bool "no torn tail" true (not r.Service.torn_tail)
          | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
          Helpers.check_bool "replayed state = live state" true
            (Service.snapshot recovered = live);
          Service.close recovered))

let test_recover_errors () =
  with_tmp_journal (fun path ->
      (* A legacy line for an unregistered principal: well-formed, but the
         current deployment cannot re-apply it. *)
      Out_channel.with_open_text path (fun oc ->
          output_string oc "nobody\t-\tanswered\n");
      let service = make_service () in
      (match Service.recover service ~journal:path with
      | Error e ->
        Helpers.check_bool "names the file" true (String.equal e.Service.file path);
        Helpers.check_bool "replay error" true (e.Service.kind = `Replay);
        Helpers.check_int "1-based line number" 1 e.Service.offset;
        let s = Service.recovery_error_to_string e in
        Helpers.check_bool "to_string leads with file:offset" true
          (String.length s > String.length path
          && String.sub s 0 (String.length path) = path)
      | Ok _ -> Alcotest.fail "unknown principal must fail replay");
      match Service.recover service ~journal:"/nonexistent/journal.log" with
      | Error e -> Helpers.check_bool "io error" true (e.Service.kind = `Io)
      | Ok _ -> Alcotest.fail "missing file must fail replay")

(* Replay-vs-live equivalence over random histories: whatever interleaving of
   principals, queries, and resets actually happened, replaying the journal
   into a fresh service reproduces every monitor bit-for-bit. *)
let test_recover_equivalence_random () =
  let queries =
    [|
      pq "Q(x) :- Meetings(x, y)";
      pq "Q(x, y) :- Meetings(x, y)";
      pq "Q(y) :- Meetings(x, y)";
      pq "Q(x, y, z) :- Contacts(x, y, z)";
      pq "Q(x) :- Contacts(x, y, z)";
      pq "Q(x) :- Meetings(x, y), Contacts(y, e, p)";
      pq "Q() :- Unknown(u)";
    |]
  in
  let principals = [| "calendar-app"; "crm-app" |] in
  let rng = Random.State.make [| 0x5EED |] in
  for _history = 1 to 100 do
    with_tmp_journal (fun path ->
        let service = make_journaled_service path in
        let steps = 1 + Random.State.int rng 12 in
        for _ = 1 to steps do
          let principal = principals.(Random.State.int rng (Array.length principals)) in
          if Random.State.int rng 10 = 0 then Service.reset service ~principal
          else
            let q = queries.(Random.State.int rng (Array.length queries)) in
            ignore (Service.submit service ~principal q)
        done;
        let live = Service.snapshot service in
        Service.close service;
        let fresh = make_service () in
        (match Service.recover fresh ~journal:path with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
        Helpers.check_bool "random history replays bit-identically" true
          (Service.snapshot fresh = live))
  done

(* Run [f] with a reporter counting warnings from the service's log source,
   restoring the previous reporter and level afterwards. *)
let with_warn_counter f =
  let count = ref 0 in
  let reporter =
    {
      Logs.report =
        (fun _src level ~over k _msgf ->
          if level = Logs.Warning then incr count;
          over ();
          k ());
    }
  in
  let old_reporter = Logs.reporter () in
  let old_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.set_level old_level)
    (fun () -> f count)

(* Submissions after [close] still decide correctly but are no longer
   durable; the first one warns (once), and recovery reproduces only the
   pre-close prefix. *)
let test_close_then_submit_warns () =
  with_tmp_journal (fun path ->
      with_warn_counter (fun warns ->
          let service = make_journaled_service path in
          ignore
            (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
          Service.close service;
          Helpers.check_int "no warning before the first post-close submit" 0 !warns;
          Helpers.check_bool "post-close submission still decided" true
            (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)")
            = Monitor.Answered);
          Helpers.check_int "first post-close submission warns" 1 !warns;
          ignore
            (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
          Helpers.check_int "subsequent submissions stay silent" 1 !warns;
          Helpers.check_bool "post-close decisions still commit" true
            (Service.stats service ~principal:"calendar-app" = (2, 0));
          (* The journal holds only the pre-close prefix. *)
          let fresh = make_service () in
          (match Service.recover fresh ~journal:path with
          | Ok r ->
            Helpers.check_int "only the pre-close decision is durable" 1
              r.Service.applied
          | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
          Helpers.check_bool "recovered stats reflect the prefix" true
            (Service.stats fresh ~principal:"calendar-app" = (1, 0))))

(* A crash mid-append can only truncate the final line from the right; such
   damage is tolerated (replay stops at the last complete record). The same
   damage anywhere else, or damage truncation cannot explain, stays fatal.
   This exercises the {e legacy} heuristics, which survive for replaying
   pre-v2 journals; the v2 torn/corrupt classification is tortured
   exhaustively in test_crash.ml. *)
let test_recover_torn_final_line () =
  let append path s =
    let oc = open_out_gen [ Open_append ] 0o644 path in
    output_string oc s;
    close_out oc
  in
  let run_history path =
    let service = make_journaled_service path in
    ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
    ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
    let live = Service.snapshot service in
    Service.close service;
    ignore (rewrite_as_legacy path);
    live
  in
  (* Torn variants a partial write could leave: a cut inside the principal,
     inside the label, inside "answered", inside a refusal tag. *)
  List.iter
    (fun torn ->
      with_tmp_journal (fun path ->
          with_warn_counter (fun warns ->
              let live = run_history path in
              append path torn;
              let fresh = make_service () in
              (match Service.recover fresh ~journal:path with
              | Ok r ->
                Helpers.check_int ("applied up to torn " ^ String.escaped torn) 2
                  r.Service.applied;
                Helpers.check_bool "torn tail reported" true r.Service.torn_tail
              | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
              Helpers.check_bool "state stops at the last complete record" true
                (Service.snapshot fresh = live);
              Helpers.check_int "torn line warns" 1 !warns)))
    [ "calendar-ap"; "crm-app\t0:"; "calendar-app\t-\tansw"; "crm-app\t-\trefused:pol" ];
  (* The same torn record followed by a complete line is corruption, not a
     crash artifact. *)
  with_tmp_journal (fun path ->
      ignore (run_history path);
      append path "calendar-app\t-\tansw\ncalendar-app\t-\treset\n";
      let fresh = make_service () in
      match Service.recover fresh ~journal:path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "torn line before EOF must fail replay");
  (* Damage truncation cannot produce — extra fields — is fatal even at the
     end of the file. *)
  with_tmp_journal (fun path ->
      ignore (run_history path);
      append path "calendar-app\t-\tanswered\textra";
      let fresh = make_service () in
      match Service.recover fresh ~journal:path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "four-field line must fail replay")

(* Regression: a tolerated torn final legacy line is truncated away at
   recovery, so the next append starts at the commit point instead of
   merging with the partial bytes (the legacy counterpart of test_crash.ml's
   crash/restart/crash sequence). The new record is v2, so the check is on
   the bytes: the committed legacy prefix, then one clean v2 record. *)
let test_legacy_append_after_torn_recovery () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      Service.close service;
      let committed = rewrite_as_legacy ~torn:"crm-app\t-\tansw" path in
      (* Restart in production order: open the journal for appending first,
         then recover over it. *)
      let restarted = make_journaled_service path in
      (match Service.recover restarted ~journal:path with
      | Ok r -> Helpers.check_bool "torn tail reported" true r.Service.torn_tail
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      (* The committed legacy prefix is sealed as its own segment: the next
         append starts a fresh v2 active file instead of joining it. *)
      Helpers.check_string "torn line truncated; legacy prefix sealed" committed
        (read_file (Journal.segment_path path 1));
      ignore (Service.submit restarted ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      Service.close restarted;
      Helpers.check_string "sealed prefix untouched" committed
        (read_file (Journal.segment_path path 1));
      match Journal.parse (read_file path) with
      | Ok ([ { Journal.fields = "crm-app" :: _; _ } ], None) -> ()
      | _ -> Alcotest.fail "the active file must be one clean v2 record")

(* Regression: recovering over a legacy active segment, deciding once and
   recovering again used to fail closed — the v2 append landed in the
   legacy file, whose parser then rejected it as an unknown principal.
   The second recovery must replay both formats, each from its own file. *)
let test_legacy_recover_twice () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      Service.close service;
      ignore (rewrite_as_legacy path);
      let restart () =
        let s = make_journaled_service path in
        match Service.recover s ~journal:path with
        | Ok r -> (s, r.Service.applied)
        | Error e -> Alcotest.fail (Service.recovery_error_to_string e)
      in
      let first, applied = restart () in
      Helpers.check_int "legacy record replayed" 1 applied;
      ignore (Service.submit first ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      let live = Service.snapshot first in
      Service.close first;
      let second, applied = restart () in
      Helpers.check_int "legacy and v2 records replayed" 2 applied;
      Helpers.check_bool "recovered = live" true (Service.snapshot second = live);
      Service.close second);
  (* A legacy replay error names its file and line once. *)
  with_tmp_journal (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc "ghost\t-\tanswered\n");
      match Service.recover (make_journaled_service path) ~journal:path with
      | Ok _ -> Alcotest.fail "unknown principal must fail closed"
      | Error e ->
        Helpers.check_string "one file:line prefix"
          (path ^ ":1: unknown principal \"ghost\"")
          (Service.recovery_error_to_string e))

(* Regression: a legacy journal whose first principal begins with the v2
   magic bytes ("J2 " — legal in the legacy format, which only excluded
   separators) must still be routed to the legacy parser: format detection
   reads the whole v2 header shape, not just the magic. *)
let test_legacy_principal_with_v2_magic () =
  with_tmp_journal (fun path ->
      let principal = "J2 app" in
      let make ?journal () =
        let s = Service.create ?journal (Pipeline.create [ v1; v2; v3 ]) in
        Service.register_stateless s ~principal ~views:[ v2 ];
        s
      in
      let service = make ~journal:path () in
      ignore (Service.submit service ~principal (pq "Q(x) :- Meetings(x, y)"));
      let live = Service.snapshot service in
      Service.close service;
      ignore (rewrite_as_legacy path);
      Helpers.check_bool "routed to the legacy parser" false (Journal.is_v2_file path);
      let fresh = make () in
      (match Service.recover fresh ~journal:path with
      | Ok r -> Helpers.check_int "legacy record replays" 1 r.Service.applied
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Helpers.check_bool "recovered = live" true (Service.snapshot fresh = live))

(* --- v2 escaping, checkpoints, rotation ------------------------------- *)

(* A principal name carrying every separator the record format uses. *)
let hostile = "evil\tapp\ninjected\t-\tanswered\r"

let make_hostile_service ?journal () =
  let service = Service.create ?journal (Pipeline.create [ v1; v2; v3 ]) in
  Service.register_stateless service ~principal:hostile ~views:[ v2 ];
  Service.register service ~principal:"crm-app"
    ~partitions:[ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
  service

(* Regression: a principal name containing tabs and newlines must not forge
   record boundaries. The v2 format escapes it and round-trips through
   recovery. *)
let test_journal_field_injection_v2 () =
  with_tmp_journal (fun path ->
      let service = make_hostile_service ~journal:path () in
      Helpers.check_bool "hostile principal answered" true
        (Service.submit service ~principal:hostile (pq "Q(x) :- Meetings(x, y)")
        = Monitor.Answered);
      ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      let live = Service.snapshot service in
      Service.close service;
      (match Journal.read_file path with
      | Ok (records, None) ->
        Helpers.check_int "exactly two records — no forged boundaries" 2
          (List.length records);
        Helpers.check_bool "hostile name round-trips" true
          (List.hd (List.hd records).Journal.fields = hostile)
      | Ok (_, Some _) -> Alcotest.fail "no torn tail expected"
      | Error c -> Alcotest.failf "journal does not decode: %s" c.Journal.corrupt_reason);
      let fresh = make_hostile_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r -> Helpers.check_int "both records replay" 2 r.Service.applied
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Helpers.check_bool "recovered = live" true (Service.snapshot fresh = live))

let test_checkpoint_and_compaction () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Helpers.check_bool "checkpoint file exists" true (Sys.file_exists (path ^ ".ckpt"));
      Helpers.check_int "one checkpoint written" 1 (Service.checkpoint_count service);
      Helpers.check_int "active segment sealed by one rotation" 1
        (Service.rotation_count service);
      Helpers.check_bool "covered segment compacted away" true
        (not (Sys.file_exists (path ^ ".1")));
      (* The tail: decisions after the checkpoint. *)
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x, y) :- Meetings(x, y)"));
      Service.reset service ~principal:"crm-app";
      let live = Service.snapshot service in
      Service.close service;
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r ->
        Helpers.check_int "only the tail replays" 2 r.Service.applied;
        Helpers.check_bool "restored from the checkpoint" true r.Service.from_checkpoint
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Helpers.check_bool "checkpoint + tail = live" true (Service.snapshot fresh = live))

(* The checkpoint is written atomically, so it has no torn-tail excuse: any
   damage is a typed fail-closed refusal naming the file. *)
let test_corrupt_checkpoint_fails_closed () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service path in
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      (match Service.checkpoint service with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Service.close service;
      let ckpt = path ^ ".ckpt" in
      let s = In_channel.with_open_bin ckpt In_channel.input_all in
      let b = Bytes.of_string s in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      Out_channel.with_open_bin ckpt (fun oc -> Out_channel.output_bytes oc b);
      let fresh = make_service () in
      match Service.recover fresh ~journal:path with
      | Error e ->
        Helpers.check_bool "typed checkpoint corruption" true
          (e.Service.kind = `Corrupt_checkpoint);
        Helpers.check_bool "names the checkpoint file" true
          (String.equal e.Service.file ckpt)
      | Ok _ -> Alcotest.fail "damaged checkpoint must fail closed")

let test_segment_rotation_and_missing_segment () =
  with_tmp_journal (fun path ->
      (* A threshold smaller than one record: every append seals a segment. *)
      let service = make_journaled_service ~segment_bytes:16 path in
      for _ = 1 to 3 do
        ignore
          (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"))
      done;
      ignore (Service.submit service ~principal:"crm-app" (pq "Q(x,y,z) :- Contacts(x,y,z)"));
      let live = Service.snapshot service in
      Service.close service;
      Helpers.check_bool "rotation happened" true (Service.rotation_count service >= 2);
      Helpers.check_bool "first rotated segment exists" true
        (Sys.file_exists (path ^ ".1"));
      let fresh = make_service () in
      (match Service.recover fresh ~journal:path with
      | Ok r -> Helpers.check_int "all segments replay" 4 r.Service.applied
      | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
      Helpers.check_bool "multi-segment recovery = live" true
        (Service.snapshot fresh = live);
      (* A missing middle segment is a hole in the history: fail closed, do
         not silently skip it. *)
      Sys.remove (path ^ ".1");
      let fresh2 = make_service () in
      match Service.recover fresh2 ~journal:path with
      | Error e ->
        Helpers.check_bool "missing segment is an io error" true (e.Service.kind = `Io)
      | Ok _ -> Alcotest.fail "a gap in the segment sequence must fail recovery")

(* Regression: only the exact names rotation writes are segments. A stray
   "<base>.01" once parsed as segment 1, so recovery of a healthy journal
   failed on a phantom hole; a stray "<base>.0x1" was deleted by the next
   checkpoint's compaction. *)
let test_stray_segment_suffixes () =
  List.iter
    (fun suffix ->
      with_tmp_journal (fun path ->
          let stray = path ^ "." ^ suffix in
          let service = make_journaled_service ~segment_bytes:1 path in
          for _ = 1 to 3 do
            ignore
              (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"))
          done;
          Out_channel.with_open_bin stray (fun oc -> output_string oc "not a segment\n");
          let fresh = make_service () in
          (match Service.recover fresh ~journal:path with
          | Ok r -> Helpers.check_int ("recovery ignores ." ^ suffix) 3 r.Service.applied
          | Error e -> Alcotest.fail (Service.recovery_error_to_string e));
          Helpers.check_bool "recovered = live" true
            (Service.snapshot fresh = Service.snapshot service);
          Helpers.check_bool "checkpoint" true (Service.checkpoint service = Ok ());
          Service.close service;
          Journal.remove_family path;
          Helpers.check_bool ("compaction and removal keep ." ^ suffix) true
            (Sys.file_exists stray);
          Sys.remove stray))
    [ "01"; "0x1"; "1_0"; "+1"; "0b11" ]

(* A family whose active file was sealed away and that has no checkpoint
   yet (a follower mirror right after a segment boundary) still exists. *)
(* The [`Journal] observations report the bytes each commit covers: one
   record per decision, and the whole batch at a group commit's covering
   flush — read before the flush empties the batch. *)
let test_journal_observations_count_bytes () =
  with_tmp_base (fun base ->
      let seen = ref [] in
      let observe (o : Service.observation) =
        if o.Service.stage = `Journal then seen := o.Service.detail :: !seen
      in
      let service = Service.create ~journal:base ~observe (Pipeline.create [ v1; v2; v3 ]) in
      Service.register service ~principal:"crm-app" ~partitions:[ ("meetings", [ v1; v2 ]) ];
      let q = pq "Q(x) :- Meetings(x, y)" in
      ignore (Service.submit service ~principal:"crm-app" q);
      let one = Journal.file_size base in
      Alcotest.(check (option string)) "per-decision bytes" (Some (string_of_int one))
        (List.assoc_opt "journal_bytes" (List.hd !seen));
      Service.batch_begin service;
      ignore (Service.submit service ~principal:"crm-app" q);
      ignore (Service.submit service ~principal:"crm-app" q);
      Helpers.check_bool "batch commits" true (Service.batch_end service = Ok ());
      let flush = List.hd !seen in
      Alcotest.(check (option string)) "covering flush bytes"
        (Some (string_of_int (Journal.file_size base - one)))
        (List.assoc_opt "journal_bytes" flush);
      Alcotest.(check (option string)) "covering flush records" (Some "2")
        (List.assoc_opt "group_records" flush);
      Service.close service)

let test_family_exists_with_only_sealed_segments () =
  with_tmp_journal (fun path ->
      let service = make_journaled_service ~segment_bytes:1 path in
      ignore (Service.submit service ~principal:"calendar-app" (pq "Q(x) :- Meetings(x, y)"));
      Service.close service;
      Sys.remove path;
      Helpers.check_bool "sealed segment counts" true (Journal.family_exists path);
      Helpers.check_bool "resume past it" true (Journal.resume_cursor path = (2, 0));
      Journal.remove_family path;
      Helpers.check_bool "removed family is gone" false (Journal.family_exists path);
      Helpers.check_bool "empty family bootstraps" true (Journal.resume_cursor path = (0, 0)))

(* Property (qcheck): live ≡ full-replay ≡ checkpoint-plus-tail-replay over
   random histories, at every checkpoint cadence — including "after every
   decision" (cadence 1) and "never" (cadence 0 = pure replay). *)
let random_queries =
  [|
    pq "Q(x) :- Meetings(x, y)";
    pq "Q(x, y) :- Meetings(x, y)";
    pq "Q(y) :- Meetings(x, y)";
    pq "Q(x, y, z) :- Contacts(x, y, z)";
    pq "Q(x) :- Contacts(x, y, z)";
    pq "Q(x) :- Meetings(x, y), Contacts(y, e, p)";
    pq "Q() :- Unknown(u)";
  |]

let prop_recovery_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"live ≡ replay ≡ checkpoint+tail, at every cadence"
       QCheck.(list_of_size Gen.(1 -- 12) (pair (int_bound 1) (int_bound 7)))
       (fun history ->
         List.for_all
           (fun cadence ->
             with_tmp_journal (fun path ->
                 let service = make_journaled_service path in
                 let n = ref 0 in
                 List.iter
                   (fun (pi, ai) ->
                     let principal = [| "calendar-app"; "crm-app" |].(pi) in
                     (if ai >= Array.length random_queries then
                        Service.reset service ~principal
                      else ignore (Service.submit service ~principal random_queries.(ai)));
                     incr n;
                     if cadence > 0 && !n mod cadence = 0 then
                       match Service.checkpoint service with
                       | Ok () -> ()
                       | Error e -> failwith e)
                   history;
                 let live = Service.snapshot service in
                 Service.close service;
                 let fresh = make_service () in
                 (match Service.recover fresh ~journal:path with
                 | Ok _ -> ()
                 | Error e -> failwith (Service.recovery_error_to_string e));
                 Service.snapshot fresh = live))
           [ 0; 1; 3 ]))

(* Property (qcheck): live ≡ replay ≡ checkpoint+tail ≡ evict+reload. The
   same random history through a budget-1 tiered store — every submit a
   fault-in, the other principal's state evicted each time — must match an
   always-resident twin decision-for-decision, byte-for-byte on the journal
   tail and checkpoint, and replay back to the same state. Both twins
   register through partitions: the tier rebuilds evicted monitors from the
   service's shared compiled policy for that spec. *)
let prop_evict_reload_equivalence =
  let partitions =
    [|
      [ ("slots", [ v2 ]) ]; [ ("meetings", [ v1; v2 ]); ("contacts", [ v3 ]) ];
    |]
  in
  let run ~tiered cadence path history =
    let service = Service.create ~journal:path (Pipeline.create [ v1; v2; v3 ]) in
    let store =
      if tiered then
        Some
          (Store.create ~budget:(Store.Principals 1) ~spill:(path ^ ".spill")
             service)
      else None
    in
    let reg service store i principal =
      match store with
      | Some s -> Store.register s ~principal ~partitions:partitions.(i)
      | None -> Service.register service ~principal ~partitions:partitions.(i)
    in
    reg service store 0 "calendar-app";
    reg service store 1 "crm-app";
    let n = ref 0 in
    let decisions =
      List.map
        (fun (pi, ai) ->
          let principal = [| "calendar-app"; "crm-app" |].(pi) in
          let d =
            if ai >= Array.length random_queries then (
              Service.reset service ~principal;
              None)
            else Some (Service.submit service ~principal random_queries.(ai))
          in
          Option.iter Store.enforce store;
          incr n;
          (if cadence > 0 && !n mod cadence = 0 then
             match Service.checkpoint service with
             | Ok () -> Option.iter (Store.compact ~force:true) store
             | Error e -> failwith e);
          d)
        history
    in
    let live = Service.snapshot service in
    Service.close service;
    Option.iter Store.close store;
    let tail = read_file path in
    let ckpt =
      if Sys.file_exists (path ^ ".ckpt") then read_file (path ^ ".ckpt") else ""
    in
    (* Replay through a fresh twin of the same shape (tiered recovers
       through the tier: its spill file is reset, then repopulated by the
       replay's own evictions). *)
    let fresh = Service.create (Pipeline.create [ v1; v2; v3 ]) in
    let fstore =
      if tiered then
        Some
          (Store.create ~budget:(Store.Principals 1) ~spill:(path ^ ".re.spill")
             fresh)
      else None
    in
    reg fresh fstore 0 "calendar-app";
    reg fresh fstore 1 "crm-app";
    (match Service.recover fresh ~journal:path with
    | Ok _ -> ()
    | Error e -> failwith (Service.recovery_error_to_string e));
    let recovered = Service.snapshot fresh in
    Option.iter Store.close fstore;
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ path ^ ".spill"; path ^ ".re.spill" ];
    (decisions, live, tail, ckpt, recovered)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"tiered (evict+reload) ≡ always-resident, at every cadence"
       QCheck.(list_of_size Gen.(1 -- 12) (pair (int_bound 1) (int_bound 7)))
       (fun history ->
         List.for_all
           (fun cadence ->
             with_tmp_journal (fun path_a ->
                 with_tmp_journal (fun path_b ->
                     let da, la, ta, ca, ra = run ~tiered:false cadence path_a history in
                     let db, lb, tb, cb, rb = run ~tiered:true cadence path_b history in
                     da = db && la = lb && ta = tb && ca = cb && ra = rb && rb = lb)))
           [ 0; 1; 3 ]))

(* The time source behind stage observations must be monotonic: never
   decreasing, and elapsed_s can never go negative even against a
   later-than-now origin. *)
let test_mclock_monotonic () =
  let t0 = Mclock.now_ns () in
  let t1 = Mclock.now_ns () in
  Helpers.check_bool "non-decreasing" true (Int64.compare t1 t0 >= 0);
  Helpers.check_bool "elapsed is clamped at zero" true
    (Mclock.elapsed_s ~since:(Int64.add (Mclock.now_ns ()) 1_000_000_000L) >= 0.);
  Helpers.check_bool "elapsed of a past origin is positive or zero" true
    (Mclock.elapsed_s ~since:t0 >= 0.)

let test_label_decode_errors () =
  Helpers.check_bool "garbage" true (Result.is_error (Label.decode "zz"));
  Helpers.check_bool "missing colon" true (Result.is_error (Label.decode "12"));
  Helpers.check_bool "negative" true (Result.is_error (Label.decode "-1:2"));
  Helpers.check_bool "mask overflow" true (Result.is_error (Label.decode "0:80000000"));
  Helpers.check_bool "empty ok" true (Label.decode "" = Ok [||])

let suite =
  [
    Alcotest.test_case "registration" `Quick test_registration;
    Alcotest.test_case "principal isolation" `Quick test_isolation;
    Alcotest.test_case "unknown principal" `Quick test_unknown_principal;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "pre-labeled submission" `Quick test_submit_label;
    Alcotest.test_case "trusted evaluator mode" `Quick test_answer_mode;
    Alcotest.test_case "label encode/decode roundtrip" `Quick test_label_roundtrip;
    Alcotest.test_case "label decode errors" `Quick test_label_decode_errors;
    Alcotest.test_case "journal line format" `Quick test_journal_lines;
    Alcotest.test_case "recover replays the journal" `Quick test_recover_replays;
    Alcotest.test_case "recover error paths" `Quick test_recover_errors;
    Alcotest.test_case "recover ≡ live over 100 random histories" `Quick
      test_recover_equivalence_random;
    Alcotest.test_case "close-then-submit warns and loses durability" `Quick
      test_close_then_submit_warns;
    Alcotest.test_case "legacy append after a torn-tail recovery" `Quick
      test_legacy_append_after_torn_recovery;
    Alcotest.test_case "recover twice over a legacy active segment" `Quick
      test_legacy_recover_twice;
    Alcotest.test_case "legacy principal starting with the v2 magic" `Quick
      test_legacy_principal_with_v2_magic;
    Alcotest.test_case "recover tolerates a torn final line only" `Quick
      test_recover_torn_final_line;
    Alcotest.test_case "v2 escapes hostile journal fields" `Quick
      test_journal_field_injection_v2;
    Alcotest.test_case "checkpoint, compaction, tail replay" `Quick
      test_checkpoint_and_compaction;
    Alcotest.test_case "corrupt checkpoint fails closed" `Quick
      test_corrupt_checkpoint_fails_closed;
    Alcotest.test_case "segment rotation and missing-segment detection" `Quick
      test_segment_rotation_and_missing_segment;
    Alcotest.test_case "stray segment suffixes are not segments" `Quick
      test_stray_segment_suffixes;
    Alcotest.test_case "a family of sealed segments exists" `Quick
      test_family_exists_with_only_sealed_segments;
    Alcotest.test_case "journal observations count committed bytes" `Quick
      test_journal_observations_count_bytes;
    prop_recovery_equivalence;
    prop_evict_reload_equivalence;
    Alcotest.test_case "monotonic clock" `Quick test_mclock_monotonic;
  ]
