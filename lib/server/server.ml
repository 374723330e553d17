(* The concurrent serving layer: principals partitioned across N shards by a
   stable hash, each shard exclusively owning a sequential
   Disclosure.Service, a label cache, and a journal segment. Clients talk to
   shards only through bounded mailboxes, and decisions run on the callers
   themselves: whoever awaits a ticket runs its shard's queue under the
   shard's claim (flat combining). A full mailbox that no caller can run
   sheds the query as Refused Overload without touching any monitor. *)

module Metrics = Metrics
module Mailbox = Mailbox
module Label_cache = Label_cache
module Ivar = Ivar
module Shard = Shard

module Service = Disclosure.Service
module Guard = Disclosure.Guard
module Monitor = Disclosure.Monitor

let src = Logs.Src.create "disclosure.server" ~doc:"Sharded disclosure-control server"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  domains : int;
  mailbox_capacity : int;
  cache_capacity : int;
  checkpoint_every : int;
  segment_bytes : int;
  drain : int;
  group_commit : bool;
  resident : Store.budget option;
}

let default_config =
  {
    domains = 4;
    mailbox_capacity = 1024;
    cache_capacity = 4096;
    checkpoint_every = 0;
    segment_bytes = 0;
    drain = 64;
    group_commit = false;
    resident = None;
  }

type state =
  | Created
  | Running
  | Stopped

type t = {
  config : config;
  shards : Shard.t array;
  metrics : Metrics.t;
  trace : Obs.Trace.t option;
  started_at : float; (* Unix.gettimeofday at create — display only *)
  started_ns : int64; (* Mclock at create — uptime and rate math *)
  mutable order : Bytes.t;
      (* The global registration order without a per-principal table: entry
         [i] is the index of the shard that took the [i]-th registration
         ([order_width] bytes). Each shard's service numbers its own
         principals in registration order, so walking the entries with one
         cursor per shard recovers every name ([iter_order]). Membership
         is each shard's own name table ([Shard.mem]). *)
  mutable registered : int; (* entries in [order] *)
  state : state Atomic.t;
      (* Atomic, not plain mutable: the networked front-end submits from
         connection domains, so the lifecycle check in [submit] races with
         [stop] on the owner's domain. *)
}

type ticket = Monitor.decision Ivar.t

type explained_ticket = (Monitor.decision * Disclosure.Explain.t option) Ivar.t

(* FNV-1a, 32-bit: principal-to-shard assignment must be stable across runs
   and OCaml versions (journal segments are replayed by shard index), so we
   avoid Hashtbl.hash, whose algorithm is unspecified. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := ((!h lxor Char.code c) * 0x01000193) land 0xFFFFFFFF)
    s;
  !h

(* The pure assignment function, exposed so a replication follower can
   partition a configuration's principals exactly as the primary did —
   the shipped per-shard segments only replay correctly under the same
   split. *)
let shard_index ~shards principal = fnv1a principal mod shards

let shard_count t = Array.length t.shards

let shard_journal base i = Printf.sprintf "%s.shard%d" base i

let create ?limits ?journal ?trace ?(config = default_config) pipeline =
  if config.domains < 1 then invalid_arg "Server.create: domains must be >= 1";
  if config.mailbox_capacity < 1 then
    invalid_arg "Server.create: mailbox_capacity must be >= 1";
  if config.cache_capacity < 0 then
    invalid_arg "Server.create: cache_capacity must be >= 0";
  if config.checkpoint_every < 0 then
    invalid_arg "Server.create: checkpoint_every must be >= 0";
  if config.segment_bytes < 0 then
    invalid_arg "Server.create: segment_bytes must be >= 0";
  if config.drain < 1 then invalid_arg "Server.create: drain must be >= 1";
  let metrics = Metrics.create ~shards:config.domains () in
  let shards =
    Array.init config.domains (fun i ->
        Shard.create ~index:i ?limits
          ?journal:(Option.map (fun base -> shard_journal base i) journal)
          ~segment_bytes:config.segment_bytes
          ~checkpoint_every:config.checkpoint_every ?trace
          ~mailbox_capacity:config.mailbox_capacity
          ~cache_capacity:config.cache_capacity ~drain:config.drain
          ~group_commit:config.group_commit ?resident:config.resident ~metrics
          pipeline)
  in
  {
    config;
    shards;
    metrics;
    trace;
    started_at = Unix.gettimeofday ();
    started_ns = Disclosure.Mclock.now_ns ();
    order = Bytes.empty;
    registered = 0;
    state = Atomic.make Created;
  }

let config t = t.config

let metrics t = t.metrics

let trace t = t.trace

let started_at t = t.started_at

(* Monotonic: a wall-clock step must not corrupt uptime-derived rates
   (queries/s = submitted / uptime_s). [started_at] stays wall-clock purely
   for display. *)
let uptime_s t = Disclosure.Mclock.elapsed_s ~since:t.started_ns

let shard_of t principal = t.shards.(shard_index ~shards:(shard_count t) principal)

let state t = Atomic.get t.state

let is_running t = state t = Running

let require_created t what =
  match state t with
  | Created -> ()
  | Running | Stopped ->
    invalid_arg (Printf.sprintf "Server.%s: server already started" what)

(* --- global registration order ------------------------------------------ *)

(* One byte per registration up to 256 shards, four beyond. *)
let order_width t = if shard_count t <= 0x100 then 1 else 4

let order_get t i =
  if order_width t = 1 then Bytes.get_uint8 t.order i
  else Int32.to_int (Bytes.get_int32_le t.order (4 * i))

let order_push t shard =
  let w = order_width t in
  let i = t.registered in
  if (i + 1) * w > Bytes.length t.order then
    t.order <- Bytes.extend t.order 0 (max (8 * w) (Bytes.length t.order));
  if w = 1 then Bytes.set_uint8 t.order i shard
  else Bytes.set_int32_le t.order (4 * i) (Int32.of_int shard);
  t.registered <- i + 1

(* Every principal as [f shard id], in global registration order. Should a
   shard's population disagree with the recorded order (a reload that
   failed on some shards after others swapped), entries past its
   population are skipped and its unvisited ids follow at the end, so each
   principal is still visited exactly once. *)
let iter_order t f =
  let counts = Array.map (fun shard -> Service.count (Shard.service shard)) t.shards in
  let cursors = Array.make (shard_count t) 0 in
  for i = 0 to t.registered - 1 do
    let shard = order_get t i in
    let id = cursors.(shard) in
    if id < counts.(shard) then begin
      cursors.(shard) <- id + 1;
      f shard id
    end
  done;
  Array.iteri (fun shard count -> for id = cursors.(shard) to count - 1 do f shard id done) counts

let register t ~principal ~partitions =
  require_created t "register";
  let shard = shard_of t principal in
  Shard.register shard ~principal ~partitions;
  order_push t (Shard.index shard);
  Log.debug (fun m -> m "principal %s -> shard %d" principal (Shard.index shard))

let register_stateless t ~principal ~views =
  register t ~principal ~partitions:[ ("default", views) ]

let principals t =
  let names = ref [] in
  iter_order t (fun shard id -> names := Service.name (Shard.service t.shards.(shard)) id :: !names);
  List.rev !names

let start t =
  require_created t "start";
  Array.iter Shard.start t.shards;
  Atomic.set t.state Running;
  Log.info (fun m ->
      m "serving on %d shard(s), mailbox capacity %d, cache capacity %d"
        t.config.domains t.config.mailbox_capacity t.config.cache_capacity)

(* Submission is allowed in Created too: messages queue in the mailboxes and
   run once [start] lets callers run rounds. Tests use this to fill a
   mailbox deterministically. *)
let admit t ~principal =
  (match state t with
  | Stopped -> invalid_arg "Server.submit: server is stopped"
  | Created | Running -> ());
  let shard = shard_of t principal in
  if not (Shard.mem shard principal) then raise (Service.Unknown_principal principal);
  Metrics.incr t.metrics Metrics.Submitted;
  shard

(* Fail-closed load shedding: the decision is made here, without touching
   the shard — the monitor stays bit-identical and nothing is journaled
   (the journal belongs to the claim holder; Overload never commits state,
   so recovery is unaffected). *)
let shed t =
  Metrics.incr t.metrics Metrics.Overloaded;
  Metrics.incr t.metrics Metrics.Refused

let submit ?ctx t ~principal query : ticket =
  let shard = admit t ~principal in
  let mailbox = Shard.mailbox shard in
  let ticket = Ivar.create ~home:mailbox () in
  if
    Mailbox.try_push mailbox
      (Shard.Query
         { principal; query; ticket; enqueued_ns = Disclosure.Mclock.now_ns (); ctx })
  then ticket
  else begin
    shed t;
    Ivar.create_filled (Monitor.Refused Guard.Overload)
  end

let submit_explained ?ctx t ~principal query : explained_ticket =
  let shard = admit t ~principal in
  let mailbox = Shard.mailbox shard in
  let ticket = Ivar.create ~home:mailbox () in
  if
    Mailbox.try_push mailbox
      (Shard.Explain
         { principal; query; ticket; enqueued_ns = Disclosure.Mclock.now_ns (); ctx })
  then ticket
  else begin
    shed t;
    (* The shard never saw the query, so the explanation is built here: an
       overload-stage refusal with no label, tier, or mask movement. *)
    Ivar.create_filled
      ( Monitor.Refused Guard.Overload,
        Some (Disclosure.Explain.refused ~principal ~stage:"overload" Guard.Overload) )
  end

let await (ticket : ticket) = Ivar.read ticket

let await_explained (ticket : explained_ticket) = Ivar.read ticket

let submit_sync t ~principal query = await (submit t ~principal query)

(* Send one control message to every shard (a blocking push: control
   messages are never shed), then read each reply in shard order — reading
   runs the shard's rounds. [None] for a shard whose mailbox is closed. *)
let control t make =
  Array.map
    (fun shard ->
      let mailbox = Shard.mailbox shard in
      let iv = Ivar.create ~home:mailbox () in
      if Mailbox.push mailbox (make shard iv) then Some iv else None)
    t.shards
  |> Array.map (Option.map Ivar.read)

(* The first failing shard's error, prefixed with its index. *)
let first_error results =
  let error = ref None in
  Array.iteri
    (fun i r ->
      match (!error, r) with
      | None, Error msg -> error := Some (Printf.sprintf "shard %d: %s" i msg)
      | _ -> ())
    results;
  match !error with None -> Ok () | Some e -> Error e

let drain t =
  match state t with
  | Created | Stopped -> ()
  | Running -> ignore (control t (fun _ iv -> Shard.Barrier iv))

let stop t =
  match state t with
  | Stopped -> ()
  | Created ->
    (* Never started: queued messages would leave their tickets forever
       unfilled — resolve them fail-closed. *)
    Array.iter
      (fun shard ->
        Shard.abandon shard;
        Shard.close_store shard;
        Service.close (Shard.service shard))
      t.shards;
    Atomic.set t.state Stopped
  | Running ->
    Array.iter
      (fun shard ->
        Shard.stop shard;
        Shard.close_store shard;
        Service.close (Shard.service shard))
      t.shards;
    Atomic.set t.state Stopped;
    Log.info (fun m -> m "stopped")

(* --- introspection (exact only while shards are quiescent) ------------- *)

let owning_service t principal =
  let shard = shard_of t principal in
  if not (Shard.mem shard principal) then raise (Service.Unknown_principal principal);
  Shard.service shard

let alive t ~principal = Service.alive (owning_service t principal) ~principal

let stats t ~principal = Service.stats (owning_service t principal) ~principal

(* One snapshot per shard, merged into global registration order. *)
let snapshot t =
  let snaps = Array.map (fun shard -> Array.of_list (Service.snapshot (Shard.service shard))) t.shards in
  let states = ref [] in
  iter_order t (fun shard id -> states := snaps.(shard).(id) :: !states);
  List.rev !states

(* Aggregated compiled-labeler statistics: counters sum across shards,
   the version is the maximum (shards reload in lockstep, so a mixed
   version is only ever visible mid-reload). Counter reads are racy word
   reads, same contract as the gauges. *)
let compile_stats t =
  Array.fold_left
    (fun (acc : Compile.Artifact.stats) shard ->
      let s = Shard.compile_stats shard in
      {
        Compile.Artifact.version = max acc.Compile.Artifact.version s.Compile.Artifact.version;
        groups = acc.groups + s.groups;
        diagram_groups = acc.diagram_groups + s.diagram_groups;
        diagram_nodes = acc.diagram_nodes + s.diagram_nodes;
        fallbacks = acc.fallbacks + s.fallbacks;
        atom_hits = acc.atom_hits + s.atom_hits;
        atom_misses = acc.atom_misses + s.atom_misses;
        query_hits = acc.query_hits + s.query_hits;
        query_misses = acc.query_misses + s.query_misses;
        intern_entries = acc.intern_entries + s.intern_entries;
        intern_capacity = acc.intern_capacity + s.intern_capacity;
        intern_hits = acc.intern_hits + s.intern_hits;
        intern_misses = acc.intern_misses + s.intern_misses;
        intern_flushes = acc.intern_flushes + s.intern_flushes;
      })
    {
      Compile.Artifact.version = 0;
      groups = 0;
      diagram_groups = 0;
      diagram_nodes = 0;
      fallbacks = 0;
      atom_hits = 0;
      atom_misses = 0;
      query_hits = 0;
      query_misses = 0;
      intern_entries = 0;
      intern_capacity = 0;
      intern_hits = 0;
      intern_misses = 0;
      intern_flushes = 0;
    }
    t.shards

(* Tiered-store statistics summed over shards; [None] when the server was
   not configured with a resident budget. Plain-int reads of claim-holder
   counters — same racy-read contract as the gauges. *)
let store_stats t =
  Option.map
    (fun _ -> Store.sum (List.filter_map Shard.store_stats (Array.to_list t.shards)))
    t.config.resident

(* Racy word reads, exact only on a quiescent or drained server. *)
let flush_counts t = Array.map Shard.flush_count t.shards

(* A shard's journal watermark, readable from any domain (racy word reads —
   see Service.journal_position). [None] for a journal-less shard and,
   briefly, for a shard mid-reload. *)
let journal_position t ~shard =
  if shard < 0 || shard >= shard_count t then
    invalid_arg "Server.journal_position: shard out of range";
  Shard.journal_position t.shards.(shard)

(* Scrapes resample every shard first, so one scrape is exact even on an
   idle server (replication lag is primary offset minus follower offset,
   each from one scrape). *)
let sample t = Array.iter Shard.sample t.shards

let prometheus t =
  sample t;
  Metrics.to_prometheus t.metrics

(* One self-describing stats document: uptime and start timestamp ride
   along with the counters so a single scrape is rate-computable
   (queries/s = submitted / uptime_s) without scraping twice. The summary
   sections and the embedded metrics document are walks over the metric
   registry; the [store] section is left out without a tiered store. *)
let stats_json t =
  sample t;
  let num i = Obs.Json.Num (float_of_int i) in
  let journal =
    Array.to_list
      (Array.map
         (fun shard ->
           match Shard.journal_position shard with
           | None -> Obs.Json.Null
           | Some (seq, bytes) -> Obs.Json.Obj [ ("segment", num seq); ("offset", num bytes) ])
         t.shards)
  in
  let trace =
    match t.trace with
    | None -> []
    | Some tr ->
      [
        ( "trace",
          Obs.Json.Obj
            [
              ("sample", num (Obs.Trace.sample_rate tr));
              ("slow_ns", num (Obs.Trace.slow_ns tr));
              ("retained", num (Obs.Trace.retained tr));
              ("dropped", num (Obs.Trace.dropped tr));
            ] );
      ]
  in
  let sections =
    List.filter
      (fun (name, _) -> name <> "store" || t.config.resident <> None)
      (Metrics.sections t.metrics)
  in
  Obs.Json.Obj
    ([
       ("started_at", Obs.Json.Num t.started_at);
       ("uptime_s", Obs.Json.Num (uptime_s t));
       ("shards", num (shard_count t));
       ( "principals",
         num (Array.fold_left (fun n shard -> n + Service.count (Shard.service shard)) 0 t.shards) );
       ("journal", Obs.Json.List journal);
     ]
    @ trace @ sections
    @ [ ("metrics", Metrics.to_json t.metrics) ])

(* --- checkpointing ------------------------------------------------------ *)

(* Each shard checkpoints its own journal independently; this drives one
   checkpoint on every shard. Quiescent servers checkpoint inline on the
   calling domain; a running server sends each shard a Checkpoint control
   message, so the snapshot happens inside a round, under the claim. *)
let checkpoint t =
  match state t with
  | Created | Stopped -> first_error (Array.map Shard.checkpoint t.shards)
  | Running ->
    first_error
      (Array.map
         (Option.value ~default:(Error "mailbox closed"))
         (control t (fun _ iv -> Shard.Checkpoint iv)))

(* --- recovery ---------------------------------------------------------- *)

(* Principals are disjoint across shards, so replaying the segments in index
   order is a deterministic merge of the global history: within a principal,
   order is the shard's append order; across principals, interleaving is
   irrelevant because monitors are independent. Requires the same shard
   count (and hash) as the run that wrote the segments. Each shard recovers
   its own checkpoint + tail under its base path <journal>.shard<i>. *)
let recover t ~journal =
  (match state t with
  | Running -> invalid_arg "Server.recover: stop the server first"
  | Created | Stopped -> ());
  let rec loop i applied =
    if i >= shard_count t then Ok applied
    else
      match
        Service.recover (Shard.service t.shards.(i)) ~journal:(shard_journal journal i)
      with
      | Ok (r : Service.recovery) ->
        Metrics.incr t.metrics Metrics.Recoveries;
        Metrics.add t.metrics Metrics.Recovered_records r.Service.applied;
        loop (i + 1) (applied + r.Service.applied)
      | Error e -> Error e
  in
  loop 0 0

(* --- online policy reload ---------------------------------------------- *)

(* Validate → swap, with no connection ever dropped: validation happens
   first on a throwaway journal-less service (so every config-level error —
   unknown views, duplicate principals, partition caps — is caught before
   any shard is touched), then each shard swaps its own service inside one
   of its rounds via a Reload control message. Mailbox ordering is the
   consistency story: every query is decided by exactly the policy version
   live when its shard's round dequeues it. Admission asks the owning
   shard's live service, which a shard publishes only once its swap is
   complete: a principal new in the configuration becomes submittable as
   soon as its own shard can decide for it, and a removed one is refused
   at admission from then on. A query for a removed principal admitted
   just before its shard swapped reaches the new service and comes back as
   a fail-closed [Refused (Fault _)] refusal — never a wrong answer, never
   a dropped connection. The global registration order is republished
   after every shard has swapped.

   After validation, a per-shard failure can only be journal I/O (reopening
   the base, the post-swap checkpoint). Such a failure leaves THAT shard on
   its old service (fail closed) while other shards may have swapped; the
   error is surfaced and the order is not republished — the operator
   retries the reload or restarts. *)
let reload t policy =
  match state t with
  | Stopped -> Error "Server.reload: server is stopped"
  | Created | Running -> (
    match Disclosure.Policyfile.resolve policy with
    | Error msg -> Error msg
    | Ok resolved -> (
      match
        let pipeline =
          Disclosure.Pipeline.create policy.Disclosure.Policyfile.views
        in
        let probe = Service.create pipeline in
        List.iter
          (fun (principal, partitions) ->
            Service.register probe ~principal ~partitions)
          resolved;
        pipeline
      with
      | exception Disclosure.Registry.Duplicate_view name ->
        Error ("duplicate view " ^ name)
      | exception Disclosure.Registry.Too_many_views rel ->
        Error ("too many views over relation " ^ rel)
      | exception Service.Duplicate_principal p -> Error ("duplicate principal " ^ p)
      | exception Invalid_argument msg -> Error msg
      | exception e -> Error (Printexc.to_string e)
      | pipeline -> (
        let shards_n = shard_count t in
        let per_shard = Array.make shards_n [] in
        List.iter
          (fun ((principal, _) as entry) ->
            let i = shard_index ~shards:shards_n principal in
            per_shard.(i) <- entry :: per_shard.(i))
          (List.rev resolved);
        let swept =
          match state t with
          | Stopped -> Error "server stopped during reload"
          | Created ->
            first_error
              (Array.map
                 (fun shard ->
                   Shard.reload shard ~pipeline ~principals:per_shard.(Shard.index shard))
                 t.shards)
          | Running ->
            first_error
              (Array.map
                 (Option.value ~default:(Error "mailbox closed"))
                 (control t (fun shard reply ->
                      Shard.Reload
                        { pipeline; principals = per_shard.(Shard.index shard); reply })))
        in
        match swept with
        | Error _ as e -> e
        | Ok () ->
          t.registered <- 0;
          List.iter
            (fun (principal, _) -> order_push t (shard_index ~shards:shards_n principal))
            resolved;
          Metrics.incr t.metrics Metrics.Reloads;
          Log.info (fun m ->
              m "policy reloaded: %d view(s), %d principal(s)"
                (List.length policy.Disclosure.Policyfile.views)
                (List.length resolved));
          Ok ())))
