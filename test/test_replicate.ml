(* Replication suite (its own executable: it runs full primary/follower
   pairs with worker domains, sockets, and a few dozen promotions).

   The failover contract, torture-tested:

   - the follower's mirror is a BIT-IDENTICAL prefix of the primary's
     committed segment family, and promoting a follower that holds the
     first [k] records yields exactly the state the primary's own crash
     recovery would produce from that prefix — for EVERY record boundary
     [k];
   - a replication batch torn at any non-boundary offset, or with any
     byte flipped, is rejected BEFORE touching the mirror — fail closed,
     never divergent;
   - bootstrap and re-bootstrap go through the primary's checkpoint and
     re-converge to byte equality after compaction;
   - online policy reload drops zero connections and decides every
     in-flight query under exactly one policy version (monotone flip);
   - graceful drain with a follower attached flushes the shipped stream
     to the last committed record while queries are already refused. *)

open Support

module Monitor = Disclosure.Monitor
module Source = Replicate.Source
module Follower = Replicate.Follower
module Journal = Disclosure.Journal
module Faults = Disclosure.Faults

let history : (string * Cq.Query.t) list =
  [
    ("crm-app", q_contacts);
    (hostile, q_slots);
    ("calendar-app", q_slots);
    ("crm-app", q_slots);
    ("calendar-app", q_meetings);
    ("crm-app", q_contacts);
    (hostile, q_meetings);
    ("crm-app", q_meetings);
  ]

let n_records = List.length history

let config ~shards = config ~domains:shards ~cache_capacity:0 ()

let make_primary ?journal ~shards () = make_server ?journal ~config:(config ~shards) ()

let run_history server =
  List.iter (fun (principal, q) -> ignore (Server.submit_sync server ~principal q)) history;
  Server.drain server

let with_bases f = with_tmp_base (fun jbase -> with_tmp_base (f jbase))

(* Same loop as [Support.catch_up], over the wire through
   [Net.Client.pull]. *)
let catch_up_wire client fol ~shards =
  for shard = 0 to shards - 1 do
    let rounds = ref 0 in
    let continue = ref true in
    while !continue do
      incr rounds;
      if !rounds > 10_000 then Alcotest.failf "shard %d: wire replication does not converge" shard;
      let seg, off = Follower.cursor fol ~shard in
      match Net.Client.pull client ~shard ~seg ~off ~max_bytes:0 with
      | Error e -> Alcotest.failf "shard %d pull: %s" shard (Net.Errors.to_string e)
      | Ok resp -> (
        (match Follower.apply_batch fol ~shard resp with
        | Ok () -> ()
        | Error e -> Alcotest.failf "shard %d apply: %s" shard e);
        match resp with
        | Net.Codec.Batch { behind = 0; data = ""; _ } -> continue := false
        | _ -> ())
    done
  done

let check_family_equal ~what jbase mbase ~shards =
  for shard = 0 to shards - 1 do
    if family_bytes jbase shard <> family_bytes mbase shard then
      Alcotest.failf "%s: shard %d family differs from the primary's" what shard
  done

let follower_snapshot fol ~shards =
  List.concat_map
    (fun shard -> Disclosure.Service.snapshot (Follower.service fol ~shard))
    (List.init shards Fun.id)

let check_states_equal ~what server fol ~shards =
  let p = sorted_snapshot (Server.snapshot server) in
  let f = sorted_snapshot (follower_snapshot fol ~shards) in
  if p <> f then Alcotest.failf "%s: follower state differs from primary" what

(* --- codec: pull/batch/snapshot round trips --------------------------- *)

let test_codec_roundtrip () =
  let raw = String.init 256 Char.chr in
  let req =
    Net.Codec.Pull
      { shard = 3; seg = 7; off = 123456; max_bytes = 65536; follower = "s1"; trace = None }
  in
  (match Net.Codec.decode_request (Net.Codec.encode_request req) with
  | Ok r when r = req -> ()
  | Ok _ -> Alcotest.fail "pull request round trip changed fields"
  | Error e -> Alcotest.failf "pull request: %s" (Net.Errors.to_string e));
  let check_resp what resp =
    match Net.Codec.decode_response (Net.Codec.encode_response resp) with
    | Ok r when r = resp -> ()
    | Ok _ -> Alcotest.failf "%s round trip changed fields" what
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  check_resp "batch"
    (Net.Codec.Batch
       { shard = 1; data = "J2 \x00\xffbytes\n"; next_seg = 2; next_off = 0; behind = 42; trace = None });
  check_resp "empty batch"
    (Net.Codec.Batch { shard = 0; data = ""; next_seg = 1; next_off = 0; behind = 0; trace = None });
  check_resp "snapshot" (Net.Codec.Snapshot { shard = 1; data = "ckpt\tbytes\n"; next_seg = 5; next_off = 0 });
  (* Data travels raw: every byte value survives, and costs one byte. *)
  let batch =
    Net.Codec.Batch { shard = 0; data = raw; next_seg = 1; next_off = 0; behind = 0; trace = None }
  in
  check_resp "every byte value" batch;
  Alcotest.(check bool) "raw data is not inflated" true
    (String.length (Net.Codec.encode_response batch) < 2 * String.length raw)

(* --- tiered follower: bounded standby, bit-identical, promotable -------- *)

(* A follower with a resident budget replays the stream through the tiered
   principal store: the per-shard budget actually bounds the standby's
   resident set, and promotion inherits the budget with the history
   intact. (Its mirror bytes equal the primary's: the oracle's follower
   axis under a resident budget.) *)
let test_tiered_follower () =
  with_bases (fun jbase tbase ->
      let shards = 2 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      let tiered = make_follower ~resident:(Store.Principals 1) ~journal:tbase ~shards () in
      catch_up source tiered ~shards;
      (* The budget bites: at most one resident principal per shard, the
         cold principals pushed down a tier. *)
      (match Follower.store_stats tiered with
      | None -> Alcotest.fail "store_stats must be Some on a tiered follower"
      | Some s ->
        Alcotest.(check bool) "resident bounded by the per-shard budget" true
          (s.Store.stat_resident <= shards);
        Alcotest.(check bool) "cold principals left the resident set" true
          (s.Store.stat_spilled + s.Store.stat_fresh > 0));
      Alcotest.(check int) "no lag" 0 (Follower.lag tiered);
      Alcotest.(check bool) "no divergence" true (Follower.last_error tiered = None);
      (* Promotion: recover over the mirror, budget inherited, history
         intact (crm-app chose the contacts side, so meetings refuse). *)
      (match Follower.promote tiered () with
      | Error e -> Alcotest.failf "tiered promote: %s" e
      | Ok (promoted, applied) ->
        Alcotest.(check int) "every record replayed" (2 * n_records) applied;
        Alcotest.(check bool) "promoted server inherits the budget" true
          ((Server.config promoted).Server.resident = Some (Store.Principals 1));
        Alcotest.(check bool) "promoted state = primary state" true
          (sorted_snapshot (Server.snapshot promoted)
          = sorted_snapshot (Server.snapshot server));
        Server.start promoted;
        Alcotest.(check bool) "promoted serves with the history intact" true
          (Monitor.is_refused (Server.submit_sync promoted ~principal:"crm-app" q_meetings));
        Alcotest.(check bool) "promoted answers within the chosen wall" true
          (Server.submit_sync promoted ~principal:"crm-app" q_contacts = Monitor.Answered);
        Server.stop promoted);
      Server.stop server)

(* --- poll_once: one pass catches up completely from bootstrap ---------- *)

let test_poll_once_catches_up () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 2 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          run_history server;
          let source = Source.create ~server ~journal:jbase () in
          let listener =
            Net.Listener.create ~extend:(Source.handler source) ~server addr
          in
          let fol = make_follower ~journal:mbase ~shards () in
          let client = Net.Client.connect addr in
          (* The documented contract: against a quiescent primary, a SINGLE
             pass bootstraps AND pulls the whole tail — a bootstrap snapshot
             must not end the pass early. *)
          let shipped = Follower.poll_once fol client in
          Alcotest.(check bool) "one pass ships bytes" true (shipped > 0);
          Alcotest.(check int) "one pass replays everything" n_records (Follower.applied fol);
          check_family_equal ~what:"poll_once" jbase mbase ~shards;
          check_states_equal ~what:"poll_once" server fol ~shards;
          Alcotest.(check bool) "source sees follower caught up" true (Source.caught_up source);
          Net.Client.close client;
          Net.Listener.stop listener;
          Server.stop server))

(* --- pull responses past 1 MiB --------------------------------------- *)

(* A pull response carries a whole checkpoint, or a batch window of up to
   1 MiB, so it can pass the server's 1 MiB request cap. A standby must
   still bootstrap from such a checkpoint and catch up such a backlog over
   the wire. Long principal names make both pass 1 MiB with a few thousand
   principals. *)
let test_pull_over_one_mib () =
  let big =
    {
      policy with
      Policyfile.principals =
        List.init 6000 (fun i ->
            (Printf.sprintf "app-%04d-%s" i (String.make 200 'p'), [ ("default", [ "V2" ]) ]));
    }
  in
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let server = Server.create ~journal:jbase ~config:(config ~shards:1) (pipeline ()) in
          register_all ~policy:big server;
          Server.start server;
          let decide_all () =
            List.iter
              (fun (principal, _) -> ignore (Server.submit_sync server ~principal q_slots))
              big.Policyfile.principals
          in
          decide_all ();
          (match Server.checkpoint server with
          | Ok () -> ()
          | Error e -> Alcotest.failf "checkpoint: %s" e);
          decide_all ();
          Server.drain server;
          let shard_base = Server.shard_journal jbase 0 in
          List.iter
            (fun (what, path) ->
              let encoded = Journal.file_size path in
              if encoded <= 1 lsl 20 then
                Alcotest.failf "%s encodes to only %d bytes" what encoded)
            [ ("checkpoint", Journal.ckpt_path shard_base); ("backlog", shard_base) ];
          let source = Source.create ~server ~journal:jbase () in
          let listener = Net.Listener.create ~extend:(Source.handler source) ~server addr in
          let fol =
            match Follower.create ~journal:mbase ~shards:1 big with
            | Ok f -> f
            | Error e -> Alcotest.failf "follower create: %s" e
          in
          Net.Client.with_connection addr (fun client -> catch_up_wire client fol ~shards:1);
          check_family_equal ~what:"pulls over 1 MiB" jbase mbase ~shards:1;
          Net.Listener.stop listener;
          Server.stop server))

(* --- run: the poll domain and the seconds-since-last-pull clock -------- *)

let eventually what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.01
  done

(* [run] mirrors the primary on its own domain; [since_last_pull] (what
   `serve --follow --failover-after` watches) restarts on every pull the
   primary answers and only grows once its listener is gone; the
   follower then promotes to the primary's state. *)
let test_run_then_promote () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 2 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          run_history server;
          let source = Source.create ~server ~journal:jbase () in
          let listener =
            Net.Listener.create ~extend:(Source.handler source) ~server addr
          in
          let fol = make_follower ~journal:mbase ~shards () in
          Follower.run fol ~primary:addr ~interval:0.01;
          eventually "the mirror to match the primary" (fun () ->
              List.for_all
                (fun shard -> family_bytes jbase shard = family_bytes mbase shard)
                (List.init shards Fun.id));
          (* Watched for longer than the bound, so a clock that never
             restarts fails here. *)
          for _ = 1 to 10 do
            Unix.sleepf 0.1;
            let s = Follower.since_last_pull fol in
            if s > 0.5 then Alcotest.failf "%.3fs since the last pull while the primary serves" s
          done;
          Net.Listener.stop listener;
          eventually "the clock to grow past 1s" (fun () -> Follower.since_last_pull fol >= 1.0);
          Alcotest.(check (option string)) "no divergence" None (Follower.last_error fol);
          (match Follower.promote fol () with
          | Error e -> Alcotest.failf "promote: %s" e
          | Ok (promoted, replayed) ->
            Alcotest.(check int) "promotion replays every record" n_records replayed;
            if
              sorted_snapshot (Server.snapshot promoted)
              <> sorted_snapshot (Server.snapshot server)
            then Alcotest.fail "promoted state differs from the primary's";
            Server.stop promoted);
          Server.stop server))

(* A catch-up pass that outlasts a failover bound must not look like an
   unreachable primary: every pull is answered (slowly, one record at a
   time), so [since_last_pull] stays far below the bound although the
   first pass takes longer than it. A clock restarted only once a whole
   pass ends fails here. *)
let test_long_pass_keeps_clock_small () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 2 and bound = 0.5 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          run_history server;
          let source = Source.create ~server ~journal:jbase () in
          let slow_pulls req =
            (match req with Net.Codec.Pull _ -> Unix.sleepf 0.08 | _ -> ());
            Source.handler source req
          in
          let listener = Net.Listener.create ~extend:slow_pulls ~server addr in
          let fol = make_follower ~max_bytes:1 ~journal:mbase ~shards () in
          let started = Unix.gettimeofday () in
          Follower.run fol ~primary:addr ~interval:0.01;
          let worst = ref 0.0 in
          eventually "the mirror to match the primary" (fun () ->
              worst := Float.max !worst (Follower.since_last_pull fol);
              List.for_all
                (fun shard -> family_bytes jbase shard = family_bytes mbase shard)
                (List.init shards Fun.id));
          let pass = Unix.gettimeofday () -. started in
          Follower.stop fol;
          if pass <= bound then
            Alcotest.failf "catch-up took %.3fs, not longer than the %.1fs bound" pass bound;
          if !worst >= bound then
            Alcotest.failf "%.3fs since the last pull during a %.3fs catch-up" !worst pass;
          Alcotest.(check (option string)) "no divergence" None (Follower.last_error fol);
          Net.Listener.stop listener;
          Server.stop server))

(* [stop] ends whichever wait [run] is in at once — the poll interval, or a
   reconnect backoff while the primary is unreachable — and an outage logs
   one warning, not one per attempt. The 10 s interval keeps both waits
   long: without the wake, stop would wait them out. *)
let test_stop_wakes_run () =
  let timed_stop what fol =
    let t0 = Unix.gettimeofday () in
    Follower.stop fol;
    let took = Unix.gettimeofday () -. t0 in
    if took > 0.25 then Alcotest.failf "stop during %s took %.3fs" what took
  in
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let server = make_primary ~journal:jbase ~shards:1 () in
          Server.start server;
          run_history server;
          let source = Source.create ~server ~journal:jbase () in
          let listener = Net.Listener.create ~extend:(Source.handler source) ~server addr in
          let fol = make_follower ~journal:mbase ~shards:1 () in
          Follower.run fol ~primary:addr ~interval:10.0;
          eventually "the mirror to match the primary" (fun () ->
              family_bytes jbase 0 = family_bytes mbase 0);
          timed_stop "the poll interval" fol;
          Net.Listener.stop listener;
          Server.stop server));
  with_tmp_base (fun mbase ->
      with_socket (fun addr ->
          let warnings = Atomic.make 0 in
          let reporter =
            {
              Logs.report =
                (fun src level ~over k _ ->
                  if level = Logs.Warning && Logs.Src.name src = "disclosure.replicate.follower"
                  then Atomic.incr warnings;
                  over ();
                  k ());
            }
          in
          let old_reporter = Logs.reporter () and old_level = Logs.level () in
          Logs.set_reporter reporter;
          Logs.set_level (Some Logs.Warning);
          Fun.protect
            ~finally:(fun () ->
              Logs.set_reporter old_reporter;
              Logs.set_level old_level)
            (fun () ->
              let fol = make_follower ~journal:mbase ~shards:1 () in
              Follower.run fol ~primary:addr ~interval:10.0;
              (* Five failed attempts by about 0.75 s, then inside a
                 backoff of 0.6–1.0 s. *)
              Unix.sleepf 1.0;
              timed_stop "a reconnect wait" fol;
              Alcotest.(check int) "one warning for the outage" 1 (Atomic.get warnings))))

(* --- failover: kill the primary at EVERY record boundary --------------- *)

let test_failover_every_record_boundary () =
  with_tmp_base (fun jbase ->
      let shards = 1 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      (* states.(i) = primary snapshot after the first [i] records. *)
      let states = Array.make (n_records + 1) (sorted_snapshot (Server.snapshot server)) in
      List.iteri
        (fun i (principal, q) ->
          ignore (Server.submit_sync server ~principal q);
          Server.drain server;
          states.(i + 1) <- sorted_snapshot (Server.snapshot server))
        history;
      Server.stop server;
      let whole = read_file (Server.shard_journal jbase 0) in
      Alcotest.(check int) "every record committed" n_records (count_newlines whole);
      (* Every record-boundary prefix: the stream a follower holds when the
         primary dies right after shipping record [k]. Promotion must yield
         exactly states.(k). *)
      for cut = 0 to String.length whole do
        if cut = 0 || whole.[cut - 1] = '\n' then begin
          let prefix = String.sub whole 0 cut in
          let k = count_newlines prefix in
          with_tmp_base @@ fun mbase ->
          let fol = make_follower ~journal:mbase ~shards () in
          (match
             Follower.apply_batch fol ~shard:0
               (Net.Codec.Snapshot { shard = 0; data = ""; next_seg = 1; next_off = 0 })
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cut %d: bootstrap: %s" cut e);
          (match
             Follower.apply_batch fol ~shard:0
               (Net.Codec.Batch
                  { shard = 0; data = prefix; next_seg = 1; next_off = cut; behind = 0;
                    trace = None })
           with
          | Ok () -> ()
          | Error e -> Alcotest.failf "cut %d: apply: %s" cut e);
          if read_opt (Server.shard_journal mbase 0) <> prefix then
            Alcotest.failf "cut %d: mirror is not the exact shipped prefix" cut;
          match Follower.promote fol ~config:(config ~shards) () with
          | Error e -> Alcotest.failf "cut %d: promote: %s" cut e
          | Ok (promoted, applied) ->
            if applied <> k then
              Alcotest.failf "cut %d: promoted server replayed %d records, expected %d" cut
                applied k;
            if sorted_snapshot (Server.snapshot promoted) <> states.(k) then
              Alcotest.failf "cut %d: promoted state diverges from the primary's prefix state"
                cut;
            Server.stop promoted
        end
      done)

(* --- follower crash: torn mirror tail at every byte offset ------------- *)

let test_follower_resume_torn_mirror () =
  with_tmp_base (fun jbase ->
      let shards = 1 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      let whole = read_file (Server.shard_journal jbase 0) in
      (* A follower killed mid-append leaves a torn mirror tail. Re-creating
         it must drop the torn record, resume from the committed boundary,
         and re-converge to byte equality. *)
      List.iter
        (fun cut ->
          with_tmp_base @@ fun mbase ->
          write_file (Server.shard_journal mbase 0) (String.sub whole 0 cut);
          let fol = make_follower ~journal:mbase ~shards () in
          let _seg, off = Follower.cursor fol ~shard:0 in
          let committed =
            let last_nl = ref 0 in
            String.iteri (fun i c -> if c = '\n' && i < cut then last_nl := i + 1) whole;
            !last_nl
          in
          if off <> committed then
            Alcotest.failf "cut %d: resume cursor %d, expected committed boundary %d" cut off
              committed;
          catch_up source fol ~shards;
          if read_opt (Server.shard_journal mbase 0) <> whole then
            Alcotest.failf "cut %d: re-converged mirror is not byte-identical" cut;
          check_states_equal ~what:(Printf.sprintf "torn mirror cut %d" cut) server fol ~shards)
        (List.init (String.length whole + 1) Fun.id);
      Server.stop server)

(* --- tamper: torn and flipped replication batches fail closed ---------- *)

let test_tamper_every_offset () =
  with_bases (fun jbase mbase ->
      let shards = 1 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      let whole = read_file (Server.shard_journal jbase 0) in
      Server.stop server;
      let fol = make_follower ~journal:mbase ~shards () in
      (match
         Follower.apply_batch fol ~shard:0
           (Net.Codec.Snapshot { shard = 0; data = ""; next_seg = 1; next_off = 0 })
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bootstrap: %s" e);
      let apply data =
        Follower.apply_batch fol ~shard:0
          (Net.Codec.Batch
             { shard = 0; data; next_seg = 1; next_off = String.length data; behind = 0;
               trace = None })
      in
      let check_rejected what data =
        (match apply data with
        | Error _ -> ()
        | Ok () -> Alcotest.failf "%s: tampered batch must be rejected" what);
        if read_opt (Server.shard_journal mbase 0) <> "" then
          Alcotest.failf "%s: rejected batch reached the mirror" what;
        if Follower.cursor fol ~shard:0 <> (1, 0) then
          Alcotest.failf "%s: rejected batch moved the cursor" what
      in
      (* Torn at every non-boundary offset: a batch must end at a record
         boundary, so a mid-record cut is a corrupt sender. *)
      for cut = 1 to String.length whole - 1 do
        if whole.[cut - 1] <> '\n' then
          check_rejected (Printf.sprintf "torn at %d" cut) (String.sub whole 0 cut)
      done;
      (* Every byte flipped, three patterns: CRC or framing must catch it. *)
      List.iter
        (fun pattern ->
          for i = 0 to String.length whole - 1 do
            let flipped = Bytes.of_string whole in
            Bytes.set flipped i (Char.chr (Char.code whole.[i] lxor pattern));
            check_rejected
              (Printf.sprintf "flip 0x%02x at %d" pattern i)
              (Bytes.to_string flipped)
          done)
        [ 0x01; 0x80; 0xff ];
      (* Wrong shard id fails closed too. *)
      (match
         Follower.apply_batch fol ~shard:0
           (Net.Codec.Batch
              { shard = 1; data = whole; next_seg = 1; next_off = String.length whole;
                behind = 0; trace = None })
       with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "wrong-shard batch must be rejected");
      (* Direct rejections are not divergence: the pristine stream still
         applies and yields the exact final state. *)
      (match apply whole with
      | Ok () -> ()
      | Error e -> Alcotest.failf "pristine batch after tampering: %s" e);
      Alcotest.(check int) "all records replayed" n_records (Follower.applied fol);
      if read_opt (Server.shard_journal mbase 0) <> whole then
        Alcotest.fail "mirror is not byte-identical after pristine apply")

(* --- bootstrap and re-bootstrap through checkpoints -------------------- *)

let test_checkpoint_bootstrap () =
  with_bases (fun jbase mbase ->
      let shards = 2 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      (match Server.checkpoint server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "checkpoint: %s" e);
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      (* A fresh follower's first pull (seg = 0) must bootstrap from the
         checkpoint, not replay from genesis. *)
      (match Source.serve_pull source ~shard:0 ~seg:0 ~off:0 ~max_bytes:0 with
      | Net.Codec.Snapshot { data; _ } ->
        Alcotest.(check bool) "bootstrap ships checkpoint bytes" true (data <> "")
      | _ -> Alcotest.fail "seg 0 pull must answer Snapshot");
      let fol = make_follower ~journal:mbase ~shards () in
      catch_up source fol ~shards;
      check_family_equal ~what:"bootstrap" jbase mbase ~shards;
      check_states_equal ~what:"bootstrap" server fol ~shards;
      (* More traffic, then a compacting checkpoint strands the follower's
         cursor in a segment the primary no longer has: the source must
         answer Snapshot and the follower must re-bootstrap cleanly. *)
      run_history server;
      (match Server.checkpoint server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "second checkpoint: %s" e);
      catch_up source fol ~shards;
      check_family_equal ~what:"re-bootstrap" jbase mbase ~shards;
      check_states_equal ~what:"re-bootstrap" server fol ~shards;
      Alcotest.(check bool) "no divergence across re-bootstrap" true
        (Follower.last_error fol = None);
      (* The re-bootstrapped mirror still promotes to the primary's state. *)
      (match Follower.promote fol ~config:(config ~shards) () with
      | Error e -> Alcotest.failf "promote after re-bootstrap: %s" e
      | Ok (promoted, _) ->
        if sorted_snapshot (Server.snapshot promoted) <> sorted_snapshot (Server.snapshot server)
        then Alcotest.fail "promoted state differs after re-bootstrap";
        Server.stop promoted);
      Server.stop server)

(* Regression: a bootstrap checkpoint the follower cannot install is an
   [Error] from [apply_batch], never an escaping exception; over the wire
   the poll loop records it, and promotion refuses the diverged follower. *)
let test_bootstrap_install_fails_closed () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 1 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          run_history server;
          (match Server.checkpoint server with
          | Ok () -> ()
          | Error e -> Alcotest.failf "checkpoint: %s" e);
          let source = Source.create ~server ~journal:jbase () in
          let snapshot = Source.serve_pull source ~shard:0 ~seg:0 ~off:0 ~max_bytes:0 in
          (match snapshot with
          | Net.Codec.Snapshot { data; _ } when data <> "" -> ()
          | _ -> Alcotest.fail "seg 0 pull must answer a non-empty Snapshot");
          let fol = make_follower ~journal:mbase ~shards () in
          let failed_rename f = Faults.with_fault Faults.Ckpt_rename (Faults.Raise "rename") f in
          (match failed_rename (fun () -> Follower.apply_batch fol ~shard:0 snapshot) with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "a failed checkpoint install must be an Error"
          | exception e -> Alcotest.failf "install failure escaped: %s" (Printexc.to_string e));
          let mirror = Server.shard_journal mbase 0 in
          Alcotest.(check bool) "no checkpoint installed" false
            (Sys.file_exists (Journal.ckpt_path mirror));
          Alcotest.(check bool) "no staging file left" false
            (Sys.file_exists (Journal.tmp_path (Journal.ckpt_path mirror)));
          let listener = Net.Listener.create ~extend:(Source.handler source) ~server addr in
          let client = Net.Client.connect addr in
          ignore (failed_rename (fun () -> Follower.poll_once fol client));
          Alcotest.(check bool) "poll records the failure" true (Follower.last_error fol <> None);
          (match Follower.promote fol ~config:(config ~shards) () with
          | Error _ -> ()
          | Ok (promoted, _) ->
            Server.stop promoted;
            Alcotest.fail "a follower whose install failed must not promote");
          Net.Client.close client;
          Net.Listener.stop listener;
          Server.stop server))

(* Regression: a mirror write that fails after the batch was validated and
   replayed is an [Error] from [apply_batch], never an escaping exception.
   The mirror is rolled back to its committed prefix and the cursor stays
   put; over the wire the poll loop records the failure, and promotion
   refuses the follower — its services hold records its mirror does not. *)
let test_mirror_write_fails_closed () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 1 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          run_history server;
          let source = Source.create ~server ~journal:jbase () in
          let fol = make_follower ~journal:mbase ~shards () in
          catch_up source fol ~shards;
          run_history server;
          let mirror = Server.shard_journal mbase 0 in
          let cursor = Follower.cursor fol ~shard:0 in
          let bytes = read_opt mirror in
          let failed_flush f = Faults.with_fault Faults.Journal_flush (Faults.Raise "disk full") f in
          let seg, off = cursor in
          let batch = Source.serve_pull source ~shard:0 ~seg ~off ~max_bytes:0 in
          (match batch with
          | Net.Codec.Batch { data; _ } when data <> "" -> ()
          | _ -> Alcotest.fail "the second history must ship as a non-empty batch");
          (match failed_flush (fun () -> Follower.apply_batch fol ~shard:0 batch) with
          | Error _ -> ()
          | Ok () -> Alcotest.fail "a failed mirror write must be an Error"
          | exception e -> Alcotest.failf "mirror failure escaped: %s" (Printexc.to_string e));
          let unchanged what =
            Alcotest.(check (pair int int)) (what ^ ": cursor unchanged") cursor
              (Follower.cursor fol ~shard:0);
            Alcotest.(check string) (what ^ ": mirror rolled back") bytes (read_opt mirror)
          in
          unchanged "apply_batch";
          let listener = Net.Listener.create ~extend:(Source.handler source) ~server addr in
          let client = Net.Client.connect addr in
          ignore (failed_flush (fun () -> Follower.poll_once fol client));
          Alcotest.(check bool) "poll records the failure" true (Follower.last_error fol <> None);
          unchanged "poll_once";
          (match Follower.promote fol ~config:(config ~shards) () with
          | Error _ -> ()
          | Ok (promoted, _) ->
            Server.stop promoted;
            Alcotest.fail "a follower whose mirror write failed must not promote");
          Net.Client.close client;
          Net.Listener.stop listener;
          Server.stop server))

(* --- online reload: flip, carry-over, reset, invalid no-op ------------- *)

let policy_open_calendar = with_partitions "calendar-app" [ ("default", [ "V1"; "V2" ]) ]

let test_reload_semantics () =
  let shards = 2 in
  let server = make_primary ~shards () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server)
    (fun () ->
      (* Old policy: calendar-app's V2 cannot answer Q(x, y). *)
      Alcotest.(check bool) "refused under old policy" true
        (Server.submit_sync server ~principal:"calendar-app" q_meetings <> Monitor.Answered);
      (* crm-app accrues state the reload must carry (its partitions are
         unchanged): answering q_slots kills the contacts partition. *)
      Alcotest.(check bool) "crm narrows" true
        (Server.submit_sync server ~principal:"crm-app" q_slots = Monitor.Answered);
      Server.drain server;
      let before = List.assoc "crm-app" (Server.snapshot server) in
      (* Invalid configuration: validation fails, nothing swaps. *)
      let bad =
        { policy with Policyfile.principals = [ ("crm-app", [ ("p", [ "V9" ]) ]) ] }
      in
      (match Server.reload server bad with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "unknown view must fail validation");
      Alcotest.(check bool) "still refused after rejected reload" true
        (Server.submit_sync server ~principal:"calendar-app" q_meetings <> Monitor.Answered);
      (* Valid reload: calendar-app flips to answered; crm-app's charge
         survives (unchanged partitions carry their monitor state). *)
      (match Server.reload server policy_open_calendar with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reload: %s" e);
      Alcotest.(check bool) "answered under new policy" true
        (Server.submit_sync server ~principal:"calendar-app" q_meetings = Monitor.Answered);
      Server.drain server;
      let after = List.assoc "crm-app" (Server.snapshot server) in
      Alcotest.(check bool) "unchanged partitions carry state" true (before = after);
      Alcotest.(check bool) "carried kill still refuses contacts" true
        (Server.submit_sync server ~principal:"crm-app" q_contacts <> Monitor.Answered);
      (* Changing a principal's partitions resets it: contacts comes back. *)
      let reshaped =
        with_partitions ~policy:policy_open_calendar "crm-app"
          [ ("all", [ "V1"; "V2"; "V3" ]) ]
      in
      (match Server.reload server reshaped with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reshape reload: %s" e);
      Alcotest.(check bool) "reshaped principal starts fresh" true
        (Server.submit_sync server ~principal:"crm-app" q_contacts = Monitor.Answered))

let test_reload_recovery_equivalence () =
  with_bases (fun jbase _ ->
      let shards = 2 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      ignore (Server.submit_sync server ~principal:"crm-app" q_slots);
      ignore (Server.submit_sync server ~principal:(hostile) q_slots);
      (match Server.reload server policy_open_calendar with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reload: %s" e);
      ignore (Server.submit_sync server ~principal:"calendar-app" q_meetings);
      ignore (Server.submit_sync server ~principal:"crm-app" q_contacts);
      Server.drain server;
      let live = sorted_snapshot (Server.snapshot server) in
      Server.stop server;
      (* Recovery under the NEW registration set must reproduce the live
         state: the reload checkpointed post-swap, so replay never pushes
         old-policy records through the new configuration. *)
      let fresh = Server.create ~config:(config ~shards) (pipeline ()) in
      register_all ~policy:policy_open_calendar fresh;
      match Server.recover fresh ~journal:jbase with
      | Error e ->
        Alcotest.failf "recovery after reload: %s" (Disclosure.Service.recovery_error_to_string e)
      | Ok _ ->
        if sorted_snapshot (Server.snapshot fresh) <> live then
          Alcotest.fail "recovered state differs from live post-reload state")

(* --- reload over the wire: zero dropped connections, monotone flip ----- *)

let test_reload_zero_drop () =
  with_socket (fun addr ->
      let shards = 2 in
      let server = make_primary ~shards () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      let client = Net.Client.connect addr in
      (* No replication source attached: Pull must be a typed refusal, not
         a dropped connection. *)
      (match Net.Client.pull client ~shard:0 ~seg:1 ~off:0 ~max_bytes:0 with
      | Error { Net.Errors.kind = Net.Errors.Bad_request; _ } -> ()
      | Error e -> Alcotest.failf "pull without source: %s" (Net.Errors.to_string e)
      | Ok _ -> Alcotest.fail "pull without source must be refused");
      let n_queries = 200 in
      let failure = Atomic.make None in
      let streamer =
        Domain.spawn (fun () ->
            let c = Net.Client.connect addr in
            let decisions =
              List.init n_queries (fun _ ->
                  match Net.Client.query c ~principal:"calendar-app" q_meetings with
                  | Ok d -> Some d
                  | Error e ->
                    Atomic.set failure (Some (Net.Errors.to_string e));
                    None)
            in
            Net.Client.close c;
            decisions)
      in
      (* Swap policies mid-stream. *)
      Unix.sleepf 0.005;
      (match Server.reload server policy_open_calendar with
      | Ok () -> ()
      | Error e -> Alcotest.failf "reload: %s" e);
      let decisions = Domain.join streamer in
      (match Atomic.get failure with
      | None -> ()
      | Some e -> Alcotest.failf "connection saw a wire error during reload: %s" e);
      Alcotest.(check int) "zero dropped queries" n_queries (List.length decisions);
      (* Exactly one policy version per query: the decision stream flips
         refused -> answered at most once, never back. *)
      let flipped_back = ref false and seen_answer = ref false in
      List.iter
        (fun d ->
          match d with
          | Some Monitor.Answered -> seen_answer := true
          | Some (Monitor.Refused _) -> if !seen_answer then flipped_back := true
          | None -> ())
        decisions;
      Alcotest.(check bool) "decisions are monotone across the swap" false !flipped_back;
      (* The reload completed before the stream ended or right after: the
         next query is decided by the new policy. *)
      Alcotest.(check bool) "post-reload query answered" true
        (match Net.Client.query client ~principal:"calendar-app" q_meetings with
        | Ok Monitor.Answered -> true
        | _ -> false);
      Net.Client.close client;
      Net.Listener.stop listener;
      Server.stop server)

(* --- graceful drain with a follower attached --------------------------- *)

let test_graceful_drain_with_follower () =
  with_bases (fun jbase mbase ->
      with_socket (fun addr ->
          let shards = 2 in
          let server = make_primary ~journal:jbase ~shards () in
          Server.start server;
          let source = Source.create ~server ~journal:jbase () in
          let listener =
            Net.Listener.create ~extend:(Source.handler source) ~server addr
          in
          let client = Net.Client.connect addr in
          List.iter
            (fun (principal, q) ->
              match Net.Client.query client ~principal q with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "query: %s" (Net.Errors.to_string e))
            history;
          (* Follower connects and pulls a LITTLE, then the operator drains:
             the shipped stream must still flush to the last committed
             record before the socket closes. *)
          let fol = make_follower ~journal:mbase ~shards () in
          let seg, off = Follower.cursor fol ~shard:0 in
          (match Net.Client.pull client ~shard:0 ~seg ~off ~max_bytes:1 with
          | Ok resp -> (
            match Follower.apply_batch fol ~shard:0 resp with
            | Ok () -> ()
            | Error e -> Alcotest.failf "partial apply: %s" e)
          | Error e -> Alcotest.failf "partial pull: %s" (Net.Errors.to_string e));
          Alcotest.(check bool) "not yet caught up" false (Source.caught_up source);
          (* Drain sequence, as `disclosurectl serve` runs it on SIGTERM. *)
          Net.Listener.quiesce listener;
          Server.drain server;
          (* The replication stream still serves until caught up... *)
          Net.Client.ping client;
          catch_up_wire client fol ~shards;
          Alcotest.(check bool) "source flushed to last committed record" true
            (Source.await_caught_up source ~timeout_s:5.0);
          (* ...while new queries are refused fail-closed (Shutting_down is
             a fatal wire error: the server replies, then closes). *)
          (match Net.Client.query client ~principal:"crm-app" q_slots with
          | Error { Net.Errors.kind = Net.Errors.Shutting_down; _ } -> ()
          | Error e -> Alcotest.failf "drain refusal: %s" (Net.Errors.to_string e)
          | Ok _ -> Alcotest.fail "query during drain must be refused");
          Net.Client.close client;
          Net.Listener.stop listener;
          Server.stop server;
          check_family_equal ~what:"drain" jbase mbase ~shards;
          check_states_equal ~what:"drain" server fol ~shards))

(* Regression: reload swaps each shard's service, and the old code closed
   the old service before publishing the staged one, so for a moment the
   shard had no journal position — which the drain gate skipped as caught
   up. Reloads overlapping a drain must never open a closed gate. *)
let test_reload_keeps_drain_gate_closed () =
  with_tmp_base (fun jbase ->
      let shards = 1 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      Alcotest.(check bool) "nobody pulled: gate closed" false (Source.caught_up source);
      let finished = Atomic.make false in
      let reloader =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set finished true)
              (fun () ->
                for _ = 1 to 100 do
                  match Server.reload server policy with
                  | Ok () -> ()
                  | Error e -> failwith ("reload: " ^ e)
                done))
      in
      Server.drain server;
      let opened = ref 0 in
      while not (Atomic.get finished) do
        if Source.caught_up source then incr opened
      done;
      Domain.join reloader;
      Alcotest.(check int) "gate never opened mid-reload" 0 !opened;
      Server.stop server)

(* --- client reconnect backoff ------------------------------------------ *)

let test_connect_retry_backoff () =
  let missing = Filename.temp_file "disclosure-rep" ".sock" in
  Sys.remove missing;
  let addr = Net.Addr.Unix_socket missing in
  let run ~attempts ~jitter ~rand =
    let sleeps = ref [] in
    (try
       ignore
         (Net.Client.connect_retry ~attempts ~delay:0.01 ~max_delay:0.04 ~jitter
            ~sleep:(fun d -> sleeps := d :: !sleeps)
            ~rand addr);
       Alcotest.fail "connect to a missing socket must fail"
     with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
    List.rev !sleeps
  in
  (* No jitter: the exact truncated exponential schedule, one sleep per
     retry (attempts - 1 of them), capped at max_delay. *)
  let delays = run ~attempts:5 ~jitter:0.0 ~rand:Random.float in
  Alcotest.(check (list (float 1e-9))) "truncated exponential schedule"
    [ 0.01; 0.02; 0.04; 0.04 ] delays;
  (* Jitter bounds: rand pegged high scales by (1 + j), pegged low by (1 - j). *)
  let high = run ~attempts:3 ~jitter:0.5 ~rand:(fun bound -> bound) in
  Alcotest.(check (list (float 1e-9))) "jitter upper bound" [ 0.015; 0.03 ] high;
  let low = run ~attempts:3 ~jitter:0.5 ~rand:(fun _ -> 0.0) in
  Alcotest.(check (list (float 1e-9))) "jitter lower bound" [ 0.005; 0.01 ] low;
  (* attempts = 1 means a single try: no sleeps at all. *)
  Alcotest.(check (list (float 1e-9))) "single attempt never sleeps" []
    (run ~attempts:1 ~jitter:0.0 ~rand:Random.float);
  (try
     ignore (Net.Client.connect_retry ~attempts:0 addr);
     Alcotest.fail "attempts = 0 must be rejected"
   with Invalid_argument _ -> ())

let test_connect_retry_succeeds_after_refusals () =
  with_socket (fun addr ->
      let server = make_primary ~shards:1 () in
      Server.start server;
      let listener = ref None in
      let failures = ref 0 in
      (* The listener appears only during the second backoff sleep: the
         client must ride out two failed connects and then succeed. *)
      let sleep _ =
        incr failures;
        if !failures = 2 then listener := Some (Net.Listener.create ~server addr)
      in
      let client = Net.Client.connect_retry ~attempts:8 ~delay:0.001 ~jitter:0.0 ~sleep addr in
      Net.Client.ping client;
      Net.Client.close client;
      Alcotest.(check int) "exactly two refused attempts" 2 !failures;
      (match !listener with Some l -> Net.Listener.stop l | None -> ());
      Server.stop server)

(* --- per-follower cursors: two standbys, correct watermarks ------------ *)

(* Pull everything for one named follower, tracking the cursor from the
   responses alone (no Follower.t needed — cursor accounting is entirely
   primary-side). *)
let pull_all source ~follower ~shard =
  let seg = ref 0 and off = ref 0 in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue do
    incr rounds;
    if !rounds > 10_000 then Alcotest.failf "shard %d: pull does not converge" shard;
    match Source.serve_pull ~follower source ~shard ~seg:!seg ~off:!off ~max_bytes:0 with
    | Net.Codec.Batch { data; next_seg; next_off; behind; _ } ->
      if data = "" && behind = 0 then continue := false;
      seg := next_seg;
      off := next_off
    | Net.Codec.Snapshot { next_seg; next_off; _ } ->
      seg := next_seg;
      off := next_off
    | _ -> Alcotest.fail "mismatched pull response"
  done

let test_two_follower_watermarks () =
  with_bases (fun jbase _mbase ->
      let shards = 1 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      (* Nobody has pulled: a non-empty journal with no known follower is
         not caught up (no standby holds its bytes). *)
      Alcotest.(check bool) "no followers, non-empty journal" false (Source.caught_up source);
      Alcotest.(check (list string)) "no followers yet" [] (Source.followers source);
      (* Standby "a" catches up fully: the gate opens — every KNOWN
         follower is caught up. *)
      pull_all source ~follower:"a" ~shard:0;
      Alcotest.(check (list string)) "a registered" [ "a" ] (Source.followers source);
      Alcotest.(check bool) "a alone, caught up" true (Source.caught_up source);
      (* Standby "b" appears but only bootstraps (one pull from seg 0) —
         b's cursor lags, so b must hold the gate closed even though a is
         still fully caught up. Before per-follower cursors, b's pull
         OVERWROTE the single shared cursor and this very state reported
         caught_up = true with a standby missing committed bytes. *)
      let bseg, boff =
        match Source.serve_pull ~follower:"b" source ~shard:0 ~seg:0 ~off:0 ~max_bytes:0 with
        | Net.Codec.Snapshot { next_seg; next_off; _ } -> (next_seg, next_off)
        | _ -> Alcotest.fail "bootstrap pull must answer a snapshot"
      in
      (* One record-sized batch: b now holds a strict prefix and has
         reported a positive [behind] — which the primary-side lag gauge
         must surface as the fleet's worst lag. *)
      (match
         Source.serve_pull ~follower:"b" source ~shard:0 ~seg:bseg ~off:boff ~max_bytes:1
       with
      | Net.Codec.Batch { behind; _ } ->
        Alcotest.(check bool) "b is strictly behind" true (behind > 0)
      | _ -> Alcotest.fail "tail pull must answer a batch");
      Alcotest.(check bool) "lag gauge tracks the laggard" true
        (Server.Metrics.gauge_value (Server.metrics server) ~shard:0
           Server.Metrics.Replication_lag
        > 0);
      Alcotest.(check (list string)) "both registered" [ "a"; "b" ] (Source.followers source);
      Alcotest.(check bool) "b lags, gate closed" false (Source.caught_up source);
      (* The merged cursor is the LEAST-advanced one — what the slowest
         standby already holds, i.e. b's, strictly behind the watermark. *)
      (match (Source.cursors source).(0), Server.journal_position server ~shard:0 with
      | Some (cseg, coff), Some (aseg, abytes) ->
        Alcotest.(check bool) "merged cursor is the laggard's" true
          (cseg < aseg || (cseg = aseg && coff < abytes))
      | None, _ -> Alcotest.fail "merged cursor must exist once anyone pulled"
      | _, None -> Alcotest.fail "journaled shard must report a position");
      (* b catches up: gate reopens. *)
      pull_all source ~follower:"b" ~shard:0;
      Alcotest.(check bool) "both caught up" true (Source.caught_up source);
      (* More traffic: BOTH must re-pull before the gate reopens — one
         fast standby must not mask the other. *)
      run_history server;
      Alcotest.(check bool) "new traffic closes the gate" false (Source.caught_up source);
      pull_all source ~follower:"a" ~shard:0;
      Alcotest.(check bool) "a alone is not enough" false (Source.caught_up source);
      (* Decommission b instead of catching it up: forget drops its cursor
         and the gate reflects the remaining fleet. *)
      Source.forget source ~follower:"b";
      Alcotest.(check (list string)) "b forgotten" [ "a" ] (Source.followers source);
      Alcotest.(check bool) "a-only fleet caught up" true (Source.caught_up source);
      Server.stop server)

(* --- watermarks in stats and Prometheus -------------------------------- *)

let test_stats_and_prometheus () =
  with_bases (fun jbase mbase ->
      let shards = 2 in
      let server = make_primary ~journal:jbase ~shards () in
      Server.start server;
      run_history server;
      let source = Source.create ~server ~journal:jbase () in
      let fol = make_follower ~journal:mbase ~shards () in
      catch_up source fol ~shards;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      let stats = Obs.Json.to_string (Server.stats_json server) in
      List.iter
        (fun needle ->
          if not (contains stats needle) then
            Alcotest.failf "stats_json is missing %S" needle)
        [ "\"journal\""; "\"segment\""; "\"offset\"" ];
      let prom = Server.prometheus server in
      List.iter
        (fun needle ->
          if not (contains prom needle) then Alcotest.failf "prometheus is missing %S" needle)
        [ "journal_offset"; "journal_segment"; "rep_pulls"; "rep_shipped_bytes" ];
      (* The committed watermark in stats matches the shard's position. *)
      (match Server.journal_position server ~shard:0 with
      | Some (seg, off) ->
        if not (contains stats (Printf.sprintf "\"segment\": %d" seg))
           && not (contains stats (Printf.sprintf "\"segment\":%d" seg))
        then Alcotest.failf "stats_json journal array misses segment %d" seg;
        ignore off
      | None -> Alcotest.fail "journaled shard must report a position");
      let fstats = Follower.stats_json fol in
      List.iter
        (fun needle ->
          if not (contains fstats needle) then
            Alcotest.failf "follower stats_json is missing %S" needle)
        [ "\"role\""; "follower"; "\"journal\""; "\"applied\""; "\"lag_bytes\"" ];
      let fprom = Server.Metrics.to_prometheus (Follower.metrics fol) in
      List.iter
        (fun needle ->
          if not (contains fprom needle) then
            Alcotest.failf "follower prometheus is missing %S" needle)
        [ "replication_lag"; "rep_applied_records" ];
      Server.stop server)

let () =
  Alcotest.run "disclosure-replicate"
    [
      ( "codec",
        [ Alcotest.test_case "pull/batch/snapshot round trips" `Quick test_codec_roundtrip ] );
      ( "replication",
        [
          Oracle.slice "steady state is bit-identical" ~pin:(fun c ->
              { c with Oracle.follower = Some (Option.value c.Oracle.follower ~default:8) });
          Alcotest.test_case "tiered follower: bounded, identical, promotable"
            `Quick test_tiered_follower;
          Alcotest.test_case "poll_once catches up in one pass" `Quick test_poll_once_catches_up;
          Alcotest.test_case "bootstrap and catch-up past 1 MiB over the wire" `Quick
            test_pull_over_one_mib;
          Alcotest.test_case "run mirrors, the pull clock grows, promote" `Quick
            test_run_then_promote;
          Alcotest.test_case "a long pass keeps the pull clock small" `Quick
            test_long_pass_keeps_clock_small;
          Alcotest.test_case "stop wakes run; one warning per outage" `Quick
            test_stop_wakes_run;
          Alcotest.test_case "failed bootstrap install fails closed" `Quick
            test_bootstrap_install_fails_closed;
          Alcotest.test_case "failed mirror write fails closed" `Quick
            test_mirror_write_fails_closed;
          Alcotest.test_case "checkpoint bootstrap and re-bootstrap" `Quick
            test_checkpoint_bootstrap;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote at every record boundary" `Slow
            test_failover_every_record_boundary;
          Alcotest.test_case "follower resumes over a torn mirror" `Slow
            test_follower_resume_torn_mirror;
          Alcotest.test_case "torn and flipped batches fail closed" `Slow
            test_tamper_every_offset;
        ] );
      ( "reload",
        [
          Alcotest.test_case "flip, carry-over, reset, invalid no-op" `Quick
            test_reload_semantics;
          Alcotest.test_case "reload then recovery equivalence" `Quick
            test_reload_recovery_equivalence;
          Alcotest.test_case "zero dropped connections over the wire" `Quick
            test_reload_zero_drop;
        ] );
      ( "drain",
        [
          Alcotest.test_case "graceful drain flushes the follower" `Quick
            test_graceful_drain_with_follower;
          Alcotest.test_case "reload overlapping a drain keeps the gate closed" `Quick
            test_reload_keeps_drain_gate_closed;
        ] );
      ( "client",
        [
          Alcotest.test_case "reconnect backoff schedule and jitter" `Quick
            test_connect_retry_backoff;
          Alcotest.test_case "reconnect succeeds after refusals" `Quick
            test_connect_retry_succeeds_after_refusals;
        ] );
      ( "cursors",
        [
          Alcotest.test_case "two standbys, per-follower watermarks" `Quick
            test_two_follower_watermarks;
        ] );
      ( "observability",
        [ Alcotest.test_case "watermarks in stats and prometheus" `Quick test_stats_and_prometheus ] );
    ]
