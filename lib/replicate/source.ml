let src = Logs.Src.create "disclosure.replicate.source" ~doc:"Primary-side journal shipper"

module Log = (val Logs.src_log src : Logs.LOG)

module Metrics = Server.Metrics
module Journal = Disclosure.Journal
module Codec = Net.Codec
module Errors = Net.Errors

let default_max_bytes = 1 lsl 20

(* One tracked follower: the cursor it last pulled {e from} per shard — a
   follower asking from [(seg, off)] proves it already holds every byte
   before it — and the [behind] estimate the last batch reported, for the
   primary-side replication-lag gauge. *)
type follower = {
  cursors : (int * int) option array;
  behinds : int array; (* last reported behind per shard; -1 = unknown *)
}

type t = {
  server : Server.t;
  journal : string;
  shards : int;
  followers : (string, follower) Hashtbl.t;
      (** Per-follower cursor state, keyed by the id the follower sends in
          its pulls (clients without the field pool under [""]). Guarded by
          [mutex]. *)
  mutex : Mutex.t;
  trace : (Obs.Trace.t * int) option;
      (** Recorder + track for the primary's pull-serving spans. *)
  trace_mutex : Mutex.t;
      (** Pulls arrive on connection domains; one writer per track. *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create ?trace ~server ~journal () =
  let shards = (Server.config server).Server.domains in
  {
    server;
    journal;
    shards;
    followers = Hashtbl.create 4;
    mutex = Mutex.create ();
    trace;
    trace_mutex = Mutex.create ();
  }

(* Call under [mutex]. *)
let follower_entry t id =
  match Hashtbl.find_opt t.followers id with
  | Some f -> f
  | None ->
    let f =
      { cursors = Array.make t.shards None; behinds = Array.make t.shards (-1) }
    in
    Hashtbl.add t.followers id f;
    f

let shard_base t i = Server.shard_journal t.journal i

(* Read from [path] starting at [off]: at most ~[max_bytes], never past
   [cap] (the committed region), and always ending on a record boundary.
   Journal escaping removes raw LF from payloads, so every newline in the
   file terminates a record; truncating at the last newline is exact. A
   single record larger than [max_bytes] is shipped whole (the window
   grows), otherwise a follower could never make progress past it. *)
let read_records path ~off ~cap ~max_bytes =
  In_channel.with_open_bin path (fun ic ->
      let avail = min cap (in_channel_length ic) - off in
      if avail <= 0 then ""
      else
        let rec attempt want =
          let len = min want avail in
          seek_in ic off;
          let s = really_input_string ic len in
          match String.rindex_opt s '\n' with
          | Some k -> String.sub s 0 (k + 1)
          | None when len < avail -> attempt (want * 2)
          | None -> ""
        in
        attempt (max max_bytes 1))

(* Committed bytes the follower still lacks once its cursor is
   [(seg, off)] — sealed remainders plus the active segment. Best-effort
   (sizes race with rotation); exactness comes from [behind = 0] only
   being reported off the re-checked active position. *)
let behind_estimate t ~shard ~aseq ~abytes ~seg ~off =
  if seg >= aseq then max 0 (abytes - off)
  else begin
    let base = shard_base t shard in
    let total = ref (max 0 (Journal.file_size (Journal.segment_path base seg) - off)) in
    for j = seg + 1 to aseq - 1 do
      total := !total + Journal.file_size (Journal.segment_path base j)
    done;
    !total + abytes
  end

(* Bootstrap (and re-bootstrap after compaction deleted a sealed segment
   under the follower): ship the checkpoint file verbatim; the follower
   resumes tailing right above its coverage bound. Concurrent
   checkpointing is safe — the file is replaced atomically, so we read one
   consistent version and parse [covers] out of the bytes we shipped. *)
let snapshot t shard =
  let ckpt = Journal.ckpt_path (shard_base t shard) in
  if not (Sys.file_exists ckpt) then Codec.Snapshot { shard; data = ""; next_seg = 1; next_off = 0 }
  else
    let data = In_channel.with_open_bin ckpt In_channel.input_all in
    match Journal.parse data with
    | Ok ({ Journal.fields; _ } :: _, None) -> (
      match Journal.parse_ckpt_header fields with
      | Ok (covers, _) -> Codec.Snapshot { shard; data; next_seg = covers + 1; next_off = 0 }
      | Error msg -> Codec.Error (Errors.fault msg))
    | Ok _ -> Codec.Error (Errors.fault "checkpoint file has no valid header record")
    | Error c ->
      Codec.Error
        (Errors.fault
           (Printf.sprintf "checkpoint corrupt at %d: %s" c.Journal.corrupt_offset
              c.Journal.corrupt_reason))

let rec serve t ~shard ~seg ~off ~max_bytes ~retries =
  match Server.journal_position t.server ~shard with
  | None ->
    (* Journal-less shard — or, for a moment, a shard mid-reload. The
       follower treats this as transient and retries on its next poll. *)
    Codec.Error (Errors.busy "shard journal position unavailable")
  | Some (aseq, abytes) ->
    if seg = 0 then snapshot t shard
    else if seg > aseq then
      (* A follower ahead of the primary can only mean the primary's
         journal was reset under it; make it start over. *)
      snapshot t shard
    else if seg < aseq then begin
      let path = Journal.segment_path (shard_base t shard) seg in
      if not (Sys.file_exists path) then
        (* Compacted by a checkpoint — the history below the coverage
           bound now only exists as the checkpoint. *)
        snapshot t shard
      else
        let size = Journal.file_size path in
        if off >= size then
          Codec.Batch
            {
              shard;
              data = "";
              next_seg = seg + 1;
              next_off = 0;
              behind = behind_estimate t ~shard ~aseq ~abytes ~seg:(seg + 1) ~off:0;
              trace = None;
            }
        else
          let data = read_records path ~off ~cap:size ~max_bytes in
          let n = String.length data in
          let next_seg, next_off = if off + n >= size then (seg + 1, 0) else (seg, off + n) in
          Codec.Batch
            {
              shard;
              data;
              next_seg;
              next_off;
              behind = behind_estimate t ~shard ~aseq ~abytes ~seg:next_seg ~off:next_off;
              trace = None;
            }
    end
    else begin
      (* The active segment. [abytes] is the commit point: every byte
         below it is a whole flushed record, anything above is garbage
         from a failed append. *)
      if off >= abytes then
        Codec.Batch { shard; data = ""; next_seg = seg; next_off = off; behind = 0; trace = None }
      else
        let base = shard_base t shard in
        let data =
          try read_records base ~off ~cap:abytes ~max_bytes
          with Sys_error _ | End_of_file -> ""
        in
        (* Rotation race: between reading the position and reading the
           file, the worker may have renamed [base] away and opened a
           fresh one — the bytes we read would then belong to the wrong
           segment. Re-check and retry down the sealed path. *)
        match Server.journal_position t.server ~shard with
        | Some (aseq2, _) when aseq2 = aseq ->
          let n = String.length data in
          Codec.Batch
            {
              shard;
              data;
              next_seg = seg;
              next_off = off + n;
              behind = max 0 (abytes - off - n);
              trace = None;
            }
        | _ when retries > 0 -> serve t ~shard ~seg ~off ~max_bytes ~retries:(retries - 1)
        | _ ->
          Codec.Batch
            {
              shard;
              data = "";
              next_seg = seg;
              next_off = off;
              behind = max 0 (abytes - off);
              trace = None;
            }
    end

(* The primary-side lag gauge: worst (largest) last-reported behind across
   followers, per shard. A follower that has never pulled the shard is
   unknown, not zero, and is skipped. Call under [mutex]. *)
let refresh_lag_gauge t ~shard =
  let m = Server.metrics t.server in
  let worst = ref (-1) in
  Hashtbl.iter
    (fun _ f -> if f.behinds.(shard) > !worst then worst := f.behinds.(shard))
    t.followers;
  if !worst >= 0 then Metrics.set_gauge m ~shard Metrics.Replication_lag !worst

(* The primary's pull-serving span: joins the follower's trace when the
   pull carried a trace context, and its own ids are echoed on the [Batch]
   response — so a lagging batch is attributable to a specific
   primary-side serve in a merged trace. Outcomes other than "answered"
   are always tail-retained, so pull spans survive any head-sampling
   rate. *)
let pull_span t ~ctx ~shard ~start_ns resp =
  match t.trace with
  | None -> resp
  | Some (trace, track) ->
    let ids =
      locked t.trace_mutex (fun () ->
          let sc =
            Obs.Trace.query_begin trace ~track ~name:"pull" ~start_ns ?ctx ~principal:"-" ()
          in
          let ids = Obs.Trace.scope_ids sc in
          Obs.Trace.annotate sc "shard" (string_of_int shard);
          let outcome =
            match resp with
            | Codec.Batch { data; behind; _ } ->
              Obs.Trace.annotate sc "bytes" (string_of_int (String.length data));
              Obs.Trace.annotate sc "behind" (string_of_int behind);
              "batch"
            | Codec.Snapshot { data; _ } ->
              Obs.Trace.annotate sc "bytes" (string_of_int (String.length data));
              "snapshot"
            | _ -> "error"
          in
          Obs.Trace.query_end sc ~outcome;
          ids)
    in
    (match resp with
    | Codec.Batch b -> Codec.Batch { b with trace = Some ids }
    | resp -> resp)

let serve_pull ?(follower = "") ?ctx t ~shard ~seg ~off ~max_bytes =
  if shard < 0 || shard >= t.shards then
    Codec.Error
      (Errors.bad_request (Printf.sprintf "shard %d out of range (server has %d)" shard t.shards))
  else if seg < 0 || off < 0 then Codec.Error (Errors.bad_request "negative replication cursor")
  else begin
    let m = Server.metrics t.server in
    let start_ns = Disclosure.Mclock.now_ns () in
    Metrics.incr m Metrics.Rep_pulls;
    locked t.mutex (fun () -> (follower_entry t follower).cursors.(shard) <- Some (seg, off));
    let max_bytes = if max_bytes <= 0 then default_max_bytes else max_bytes in
    let resp = try serve t ~shard ~seg ~off ~max_bytes ~retries:4 with
      | Sys_error msg -> Codec.Error (Errors.fault ("journal read failed: " ^ msg))
      | End_of_file -> Codec.Error (Errors.fault "journal file shrank mid-read")
    in
    (match resp with
    | Codec.Batch { data; behind; _ } ->
      Metrics.add m Metrics.Rep_shipped_bytes (String.length data);
      locked t.mutex (fun () ->
          (follower_entry t follower).behinds.(shard) <- behind;
          refresh_lag_gauge t ~shard)
    | Codec.Snapshot { data; _ } ->
      Metrics.add m Metrics.Rep_shipped_bytes (String.length data)
    | _ -> ());
    pull_span t ~ctx ~shard ~start_ns resp
  end

let handler t = function
  | Codec.Pull { shard; seg; off; max_bytes; follower; trace } ->
    Some (serve_pull ~follower ?ctx:trace t ~shard ~seg ~off ~max_bytes)
  | Codec.Query _ | Codec.Explain _ | Codec.Ping | Codec.Stats -> None

let followers t =
  locked t.mutex (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) t.followers [])
  |> List.sort String.compare

let forget t ~follower = locked t.mutex (fun () -> Hashtbl.remove t.followers follower)

(* Cursor order: a follower at a later segment holds strictly more than one
   at an earlier segment; within a segment, more bytes is further ahead. *)
let cursor_leq a b =
  match (a, b) with
  | (s1, o1), (s2, o2) -> s1 < s2 || (s1 = s2 && o1 <= o2)

(* The merged per-shard watermark: the {e least-advanced} cursor over every
   follower that pulled the shard (None only when nobody has). The drain
   gate compares this against the committed position, so with several
   standbys it only opens when the slowest one has everything. *)
let cursors t =
  locked t.mutex (fun () ->
      Array.init t.shards (fun shard ->
          Hashtbl.fold
            (fun _ f acc ->
              match (acc, f.cursors.(shard)) with
              | None, c | c, None -> c
              | Some a, Some b -> Some (if cursor_leq a b then a else b))
            t.followers None))

(* One follower's cursor array against the committed positions: caught up
   iff every shard's cursor sits at the committed watermark (a shard it
   never pulled passes only while that journal is still empty). A source
   serves a journaled server, so a shard without a position is not caught
   up: skipping it would let the gate open on a racy read of a shard
   whose service is being swapped by a reload. *)
let cursors_caught_up t (cs : (int * int) option array) =
  let ok = ref true in
  for i = 0 to t.shards - 1 do
    match Server.journal_position t.server ~shard:i with
    | None -> ok := false
    | Some (aseq, abytes) -> (
      match cs.(i) with
      | Some (s, o) when s = aseq && o >= abytes -> ()
      | Some _ -> ok := false
      | None -> if not (aseq = 1 && abytes = 0) then ok := false)
  done;
  !ok

(* Every known follower, not the merged watermark: a standby that has not
   yet pulled some shard must hold the gate closed even while a faster
   standby is fully caught up. With no follower ever seen, this degrades
   to the pre-tracking behaviour — true only while every journaled shard
   is still empty. *)
let caught_up t =
  let snapshots =
    locked t.mutex (fun () ->
        Hashtbl.fold (fun _ f acc -> Array.copy f.cursors :: acc) t.followers [])
  in
  match snapshots with
  | [] -> cursors_caught_up t (Array.make t.shards None)
  | fs -> List.for_all (cursors_caught_up t) fs

let await_caught_up t ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec wait () =
    if caught_up t then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()
