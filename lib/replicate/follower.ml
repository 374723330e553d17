let src = Logs.Src.create "disclosure.replicate.follower" ~doc:"Hot-standby journal follower"

module Log = (val Logs.src_log src : Logs.LOG)

module Metrics = Server.Metrics
module Service = Disclosure.Service
module Journal = Disclosure.Journal
module Faults = Disclosure.Faults
module Json = Obs.Json
module Codec = Net.Codec
module Errors = Net.Errors
module Client = Net.Client

type shard_state = {
  base : string;
  service : Service.t;
  store : Store.t option;
      (** Tiered principal store over [service] when the follower was
          created with a resident budget — the standby bounds its resident
          set exactly like the primary, rebuilding spill state from the
          mirrored journal it replays. *)
  mirror : Journal.Writer.t;
      (** The local active file. Its position is the shard's cursor:
          segment index ([0] = bootstrap needed) and committed bytes. *)
  mutable behind : int;  (** Primary's last estimate of unshipped bytes. *)
}

type t = {
  id : string;  (** Sent with every pull — the primary's cursor-table key. *)
  journal : string;
  limits : Disclosure.Guard.limits option;
  pipeline : Disclosure.Pipeline.t;
  resolved : (string * (string * Disclosure.Sview.t list) list) list;
  resident : Store.budget option;
  shards : shard_state array;
  metrics : Metrics.t;
  max_bytes : int;
  mutable applied : int;
  stopping : bool Atomic.t;
  mutable runner : (unit Domain.t * Unix.file_descr * Unix.file_descr) option;
      (** {!run}'s poll domain and its wake pipe (read, write): {!stop}
          writes one byte, which ends every wait from then on. *)
  last_pull : int64 Atomic.t;
      (** {!Disclosure.Mclock} time of the last pull pass that ended
          without divergence ({!create} time before the first). *)
  mutable last_error : string option;
      (** A {e divergence} error — corrupt batch, replay failure. Fail
          closed: the poll loop halts and promotion refuses. Transient
          transport errors never land here. *)
  mutex : Mutex.t;  (** Serializes apply against stats/cursor readers. *)
  trace : Obs.Trace.t option;
      (** Recorder for the standby's replication spans (track = shard).
          Written only by the poll domain. *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* A fresh journal-less service holding this shard's slice of the
   configuration — the follower never journals through the service; the
   mirror is written raw, which is what makes it bit-identical. *)
let fresh_service ?limits ~pipeline ~resolved ~shards shard =
  let service = Service.create ?limits pipeline in
  (try
     List.iter
       (fun (principal, partitions) ->
         if Server.shard_index ~shards principal = shard then
           Service.register service ~principal ~partitions)
       resolved
   with e ->
     Service.close service;
     raise e);
  service

(* Wrap a shard's mirror service in a tiered store when a resident budget
   is configured. Fault-ins during replay enforce the budget themselves, so
   the standby's resident set stays bounded without a serving loop driving
   eviction. The spill file sits next to the mirror family; it is scratch
   (reset here and on every recover), never part of the mirrored prefix. *)
let attach_store ?resident ~resolved ~shards shard service base =
  match resident with
  | None -> None
  | Some budget ->
    let store = Store.create ~budget ~spill:(Journal.spill_path base) service in
    List.iter
      (fun (principal, _) ->
        if Server.shard_index ~shards principal = shard then Store.track store ~principal)
      resolved;
    Store.enforce store;
    Some store

(* A shard over its mirror family at [segment]: the store first (it
   truncates the spill file, so a previous store must already be closed),
   then the mirror's writer, which trips the journal's flush stage as the
   primary's does. *)
let open_shard ?resident ~resolved ~shards shard service base ~segment =
  let store = attach_store ?resident ~resolved ~shards shard service base in
  let mirror = Journal.Writer.create ~stage:Faults.Journal_flush ~segment base in
  { base; service; store; mirror; behind = 0 }

let cursor_of st = Journal.Writer.position st.mirror

let close_shard st =
  Journal.Writer.close st.mirror;
  Option.iter Store.close st.store;
  Service.close st.service

(* Distinct per process-lifetime by construction; pid-qualified so two
   standby processes pulling the same primary never share a cursor. *)
let follower_counter = Atomic.make 0

let default_id () =
  Printf.sprintf "follower-%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add follower_counter 1)

let create ?id ?limits ?(max_bytes = Source.default_max_bytes) ?trace ?resident ~journal
    ~shards policy =
  if shards < 1 then invalid_arg "Follower.create: shards must be >= 1";
  let id = match id with Some "" | None -> default_id () | Some id -> id in
  match Disclosure.Policyfile.resolve policy with
  | Error e -> Error e
  | Ok resolved -> (
    match Disclosure.Pipeline.create policy.Disclosure.Policyfile.views with
    | exception e -> Error ("invalid view set: " ^ Printexc.to_string e)
    | pipeline ->
      let states = Array.make shards None in
      let err = ref None in
      (try
         for i = 0 to shards - 1 do
           if !err = None then begin
             let base = Server.shard_journal journal i in
             let service = fresh_service ?limits ~pipeline ~resolved ~shards i in
             (* The resume cursor comes from the mirror alone, exactly as
                the primary seeds its own rotation sequence. An empty family
                is a follower that never mirrored a byte: bootstrap state
                (segment 0), not a recovery error. *)
             let recovered =
               match Journal.resume_cursor base with
               | 0, 0 -> Ok 0
               | _ ->
                 let resumed _ = fst (Journal.resume_cursor base) in
                 Result.map resumed (Service.recover service ~journal:base)
             in
             match recovered with
             | Error e ->
               Service.close service;
               err :=
                 Some
                   (Printf.sprintf "shard %d mirror: %s" i (Service.recovery_error_to_string e))
             | Ok segment ->
               states.(i) <- Some (open_shard ?resident ~resolved ~shards i service base ~segment)
           end
         done
       with e -> err := Some ("follower init failed: " ^ Printexc.to_string e));
      match !err with
      | Some e ->
        Array.iter (function Some st -> close_shard st | None -> ()) states;
        Error e
      | None ->
        Ok
          {
            id;
            journal;
            limits;
            pipeline;
            resolved;
            resident;
            shards = Array.map (function Some st -> st | None -> assert false) states;
            metrics = Metrics.create ~shards ();
            max_bytes;
            applied = 0;
            stopping = Atomic.make false;
            runner = None;
            last_pull = Atomic.make (Disclosure.Mclock.now_ns ());
            last_error = None;
            mutex = Mutex.create ();
            trace;
          })

(* --- applying shipped bytes ------------------------------------------- *)

(* Mirror a validated batch through the shard's writer, then seal the
   segment it completed as the primary sealed its own. A failed write is
   already rolled back, cursor unchanged; the [Error] fails the follower
   closed, since the batch's records are already replayed. *)
let mirror_batch st data next_seg =
  match
    if data <> "" then Journal.Writer.write st.mirror data;
    while
      let seg, _ = cursor_of st in
      seg <> 0 && seg < next_seg
    do
      Journal.Writer.seal st.mirror
    done
  with
  | () -> Ok ()
  | exception e -> Error ("mirror write: " ^ Printexc.to_string e)

(* Replace the shard's whole mirror with a shipped checkpoint. A failed
   install or recovery is an [Error], never an exception: the caller fails
   closed on it. The install is the primary's own
   ({!Journal.install_checkpoint}), so a crash mid-bootstrap leaves either
   no checkpoint (clean re-bootstrap) or a complete one. *)
let rebootstrap t ~shard ~data ~next_seg =
  let st = t.shards.(shard) in
  let ( let* ) = Result.bind in
  let* () =
    try
      (* The family goes away under the writer: close it first. *)
      Journal.Writer.close st.mirror;
      Journal.remove_family st.base;
      if data <> "" then Journal.install_checkpoint st.base (fun oc -> output_string oc data);
      Ok ()
    with e -> Error ("bootstrap checkpoint install: " ^ Printexc.to_string e)
  in
  let service =
    fresh_service ?limits:t.limits ~pipeline:t.pipeline ~resolved:t.resolved
      ~shards:(Array.length t.shards) shard
  in
  (* No checkpoint shipped means the primary's history starts empty: the
     fresh service IS the bootstrap state, and there is nothing to recover. *)
  let recovered =
    if data = "" then Ok ()
    else
      match Service.recover service ~journal:st.base with
      | Ok _ -> Ok ()
      | Error e ->
        Error (Printf.sprintf "bootstrap checkpoint: %s" (Service.recovery_error_to_string e))
  in
  match recovered with
  | Error e ->
    Service.close service;
    Error e
  | Ok () -> (
    close_shard st;
    match
      open_shard ?resident:t.resident ~resolved:t.resolved ~shards:(Array.length t.shards)
        shard service st.base ~segment:next_seg
    with
    | exception e ->
      Service.close service;
      Error ("bootstrap mirror: " ^ Printexc.to_string e)
    | fresh ->
      t.shards.(shard) <- fresh;
      Ok ())

let sample_gauges t =
  Array.iteri
    (fun i st ->
      let seg, off = cursor_of st in
      Metrics.set_gauge t.metrics ~shard:i Metrics.Journal_segment seg;
      Metrics.set_gauge t.metrics ~shard:i Metrics.Journal_offset off;
      Metrics.set_gauge t.metrics ~shard:i Metrics.Replication_lag st.behind)
    t.shards

(* Apply one pull response. Validation precedes mirroring: a batch that
   does not parse cleanly, or whose records the configuration cannot
   re-apply, never reaches the mirror — the on-disk prefix stays
   bit-identical to a prefix the primary actually committed, and the
   error is terminal (fail closed, never divergent). *)
let apply_response t ~shard resp =
  let st = t.shards.(shard) in
  match resp with
  | Codec.Batch { shard = s; data; next_seg; next_off; behind; trace = _ } ->
    if s <> shard then Error (Printf.sprintf "batch for shard %d answered a pull for %d" s shard)
    else begin
      let parsed =
        if data = "" then Ok []
        else
          match Journal.parse data with
          | Error c ->
            Error
              (Printf.sprintf "corrupt batch at %d: %s" c.Journal.corrupt_offset
                 c.Journal.corrupt_reason)
          | Ok (_, Some torn) -> Error ("torn batch: " ^ torn.Journal.torn_reason)
          | Ok (records, None) -> Ok records
      in
      match parsed with
      | Error _ as e -> e
      | Ok records -> (
        let rec replay = function
          | [] -> Ok ()
          | r :: rest -> (
            match Service.apply_journal_record st.service r.Journal.fields with
            | Ok () ->
              t.applied <- t.applied + 1;
              Metrics.incr t.metrics Metrics.Rep_applied_records;
              replay rest
            | Error msg -> Error (Printf.sprintf "replay at %d: %s" r.Journal.offset msg))
        in
        match replay records with
        | Error _ as e -> e
        | Ok () ->
          Result.bind (mirror_batch st data next_seg) (fun () ->
              st.behind <- behind;
              let seg, off = cursor_of st in
              if next_seg = seg && next_off <> off then
                Error
                  (Printf.sprintf "cursor skew: primary says (%d,%d), mirror is at (%d,%d)"
                     next_seg next_off seg off)
              else Ok ()))
    end
  | Codec.Snapshot { shard = s; data; next_seg; next_off = _ } ->
    if s <> shard then
      Error (Printf.sprintf "snapshot for shard %d answered a pull for %d" s shard)
    else rebootstrap t ~shard ~data ~next_seg
  | Codec.Error e -> Error (Errors.to_string e)
  | Codec.Decision _ | Codec.Explained _ | Codec.Pong | Codec.Stats_doc _ ->
    Error "mismatched response to a pull"

let apply_batch t ~shard resp = locked t.mutex (fun () -> apply_response t ~shard resp)

(* --- polling ----------------------------------------------------------- *)

exception Diverged of string

let pull_shard t client shard =
  (* Re-read the shard's state each round: a snapshot replaces it. *)
  let cursor () = cursor_of t.shards.(shard) in
  let total = ref 0 in
  let continue = ref true in
  while !continue && not (Atomic.get t.stopping) do
    (* One span per pull round trip. Its ids travel as the pull's trace
       context, so the primary's serving span joins this trace; the batch
       echoes the primary span's id back, annotated here — a merged export
       shows exactly which primary-side serve produced the bytes this apply
       span is paying for. *)
    let sc =
      match t.trace with
      | None -> None
      | Some tr ->
        Some (Obs.Trace.query_begin tr ~track:shard ~name:"replicate" ~principal:"-" ())
    in
    let ctx = Option.map Obs.Trace.scope_ids sc in
    let finish outcome =
      match sc with Some s -> Obs.Trace.query_end s ~outcome | None -> ()
    in
    match
      let seg, off = cursor () in
      Client.pull ~follower:t.id ?ctx client ~shard ~seg ~off
        ~max_bytes:t.max_bytes
    with
    | Error e ->
      (* Typed wire error — mid-reload, no source attached yet. Transient:
         skip this shard until the next poll. The primary still answered. *)
      Atomic.set t.last_pull (Disclosure.Mclock.now_ns ());
      Log.debug (fun m -> m "shard %d pull refused: %s" shard (Errors.to_string e));
      finish "refused";
      continue := false
    | Ok resp ->
      (match (sc, resp) with
      | Some s, Codec.Batch { data; behind; trace; _ } ->
        Obs.Trace.annotate s "bytes" (string_of_int (String.length data));
        Obs.Trace.annotate s "behind" (string_of_int behind);
        (match trace with
        | Some (_, psid) -> Obs.Trace.annotate s "primary_span" (string_of_int psid)
        | None -> ())
      | Some s, Codec.Snapshot { data; _ } ->
        Obs.Trace.annotate s "bytes" (string_of_int (String.length data))
      | _ -> ());
      let before = cursor () in
      let applied =
        locked t.mutex (fun () ->
            let n =
              match resp with
              | Codec.Batch { data; _ } | Codec.Snapshot { data; _ } -> String.length data
              | _ -> 0
            in
            match apply_response t ~shard resp with
            | Ok () -> Ok n
            | Error _ as e -> e)
      in
      (match applied with
      | Error msg ->
        finish "diverged";
        raise (Diverged (Printf.sprintf "shard %d: %s" shard msg))
      | Ok n ->
        finish (match resp with Codec.Snapshot _ -> "snapshot" | _ -> "batch");
        total := !total + n;
        Atomic.set t.last_pull (Disclosure.Mclock.now_ns ());
        Metrics.incr t.metrics Metrics.Rep_pulls;
        Metrics.add t.metrics Metrics.Rep_shipped_bytes n;
        (* Pull until a response stops moving the cursor: a snapshot only
           re-baselines (the tail still has to be pulled, whatever [behind]
           claims), and the final empty batch both ends the pass and shows
           the source we asked FROM the committed watermark — which is what
           its [caught_up] drain gate measures (possession proof). *)
        if cursor () = before then continue := false)
  done;
  !total

let poll_once t client =
  let total = ref 0 in
  (try
     for shard = 0 to Array.length t.shards - 1 do
       total := !total + pull_shard t client shard
     done;
     sample_gauges t
   with Diverged msg ->
     t.last_error <- Some msg;
     Log.err (fun m -> m "replication halted (fail closed): %s" msg));
  !total

(* Reconnect waits double from {!Client.connect_retry}'s base up to this
   bound, or up to the poll interval when that is longer: a restarted
   primary is found again within about this long. *)
let max_reconnect_wait = 0.2

exception Stopped

let run t ~primary ~interval =
  if t.runner <> None then invalid_arg "Follower.run: already running";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let stopping () = Atomic.get t.stopping in
  let pause d =
    try ignore (Unix.select [ wake_r ] [] [] (Float.max 0.0 d))
    with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let max_delay = Float.max interval max_reconnect_wait in
  (* One warning per outage: the first failure opens it, the next
     connection closes it. *)
  let down = ref false in
  let outage what =
    if not !down then begin
      down := true;
      Log.warn (fun m -> m "primary %s %s" (Net.Addr.to_string primary) what)
    end
  in
  let connect () =
    Client.connect_retry ~attempts:max_int ~max_delay primary ~sleep:(fun d ->
        outage "unreachable; reconnecting";
        pause d;
        if stopping () then raise Stopped)
  in
  let loop () =
    while (not (stopping ())) && t.last_error = None do
      match connect () with
      | exception Stopped -> ()
      | exception e ->
        outage ("unreachable: " ^ Printexc.to_string e);
        pause max_delay
      | client -> (
        if !down then begin
          down := false;
          Log.info (fun m -> m "reconnected to primary %s" (Net.Addr.to_string primary))
        end;
        try
          Fun.protect
            ~finally:(fun () -> Client.close client)
            (fun () ->
              while (not (stopping ())) && t.last_error = None do
                ignore (poll_once t client);
                pause interval
              done)
        with
        | Client.Protocol_error msg -> outage ("connection lost: " ^ msg)
        | Unix.Unix_error (err, _, _) -> outage ("connection lost: " ^ Unix.error_message err))
    done
  in
  t.runner <- Some (Domain.spawn loop, wake_r, wake_w)

let stop t =
  Atomic.set t.stopping true;
  match t.runner with
  | None -> ()
  | Some (d, wake_r, wake_w) ->
    (try ignore (Unix.write_substring wake_w "x" 0 1) with Unix.Unix_error _ -> ());
    Domain.join d;
    Unix.close wake_r;
    Unix.close wake_w;
    t.runner <- None

(* --- introspection ----------------------------------------------------- *)

let id t = t.id

let cursor t ~shard =
  if shard < 0 || shard >= Array.length t.shards then invalid_arg "Follower.cursor";
  locked t.mutex (fun () ->
      cursor_of t.shards.(shard))

let total_behind t = Array.fold_left (fun acc st -> acc + st.behind) 0 t.shards

let lag t = locked t.mutex (fun () -> total_behind t)

let applied t = locked t.mutex (fun () -> t.applied)

let last_error t = t.last_error

let since_last_pull t = Disclosure.Mclock.elapsed_s ~since:(Atomic.get t.last_pull)

let metrics t = t.metrics

let service t ~shard =
  if shard < 0 || shard >= Array.length t.shards then invalid_arg "Follower.service";
  t.shards.(shard).service

let store_stats t =
  Option.map
    (fun _ ->
      Store.sum
        (List.filter_map
           (fun st -> Option.map Store.stats st.store)
           (Array.to_list t.shards)))
    t.resident

let stats_json t =
  locked t.mutex (fun () ->
      sample_gauges t;
      let shards =
        Array.to_list t.shards
        |> List.map (fun st ->
               let seg, off = cursor_of st in
               Json.Obj
                 [
                   ("segment", Json.Num (float_of_int seg));
                   ("offset", Json.Num (float_of_int off));
                   ("behind", Json.Num (float_of_int st.behind));
                 ])
      in
      let doc =
        Json.Obj
          ([
             ("role", Json.Str "follower");
             ("shards", Json.Num (float_of_int (Array.length t.shards)));
             ("applied", Json.Num (float_of_int t.applied));
             ("lag_bytes", Json.Num (float_of_int (total_behind t)));
             ("journal", Json.List shards);
           ]
          @
          match t.last_error with
          | None -> []
          | Some e -> [ ("error", Json.Str e) ])
      in
      Json.to_string doc)

(* --- failover ----------------------------------------------------------- *)

let promote t ?config () =
  stop t;
  match t.last_error with
  | Some e -> Error ("refusing to promote a diverged follower: " ^ e)
  | None -> (
    locked t.mutex (fun () ->
        Array.iter close_shard t.shards;
        let shards = Array.length t.shards in
        let config =
          match config with
          | Some c -> { c with Server.domains = shards }
          | None ->
            (* The promoted server inherits the standby's resident budget:
               a follower that bounded its memory must not need a full
               resident set the moment it becomes primary. *)
            {
              Server.default_config with
              Server.domains = shards;
              resident = t.resident;
            }
        in
        let server = Server.create ~journal:t.journal ~config t.pipeline in
        List.iter
          (fun (principal, partitions) -> Server.register server ~principal ~partitions)
          t.resolved;
        match Server.recover server ~journal:t.journal with
        | Ok applied -> Ok (server, applied)
        | Error e ->
          Server.stop server;
          Error (Service.recovery_error_to_string e)))
