(* One shard: a single-threaded Disclosure.Service plus its label cache,
   behind a bounded mailbox that callers run themselves (flat combining:
   whoever awaits a ticket runs the shard's queued messages under the
   shard's claim). Exclusive ownership is the whole concurrency story — the
   service, its journal channel, and the cache are only ever touched by the
   claim holder (or by the owner before [start] / after [stop]), so none of
   them need locks and the sequential service semantics carry over
   shard-locally unchanged. *)

module Service = Disclosure.Service
module Guard = Disclosure.Guard
module Monitor = Disclosure.Monitor
module Label = Disclosure.Label
module Explain = Disclosure.Explain
module Artifact = Compile.Artifact

let src = Logs.Src.create "disclosure.shard" ~doc:"Serving-layer shard"

module Log = (val Logs.src_log src : Logs.LOG)

type msg =
  | Query of {
      principal : string;
      query : Cq.Query.t;
      ticket : Monitor.decision Ivar.t;
      enqueued_ns : int64; (* Mclock stamp at submit; 0 = unknown *)
      ctx : (int * int) option;
          (* Inherited trace context from the wire, so the shard's root span
             joins the caller's trace. *)
    }
  | Explain of {
      principal : string;
      query : Cq.Query.t;
      ticket : (Monitor.decision * Explain.t option) Ivar.t;
      enqueued_ns : int64;
      ctx : (int * int) option;
    }
  | Barrier of unit Ivar.t
  | Checkpoint of (unit, string) result Ivar.t
  | Reload of {
      pipeline : Disclosure.Pipeline.t;
      principals : (string * (string * Disclosure.Sview.t list) list) list;
      reply : (unit, string) result Ivar.t;
    }

(* How many decisions between gauge samples. A sample is cheap but not
   free; once per 64 queries keeps the gauges seconds-fresh under load for
   well under 1% overhead, and barriers and scrapes resample so quiescent
   reads are exact. *)
let sample_period = 64

(* Who gets told the decision: a plain ticket, or an explain ticket that also
   receives the captured provenance. The principal rides along so a
   group-commit batch abort can synthesize a journal-stage explanation for
   tickets whose captured one described the rolled-back decision. *)
type pending =
  | Plain of Monitor.decision Ivar.t
  | Explained of {
      ticket : (Monitor.decision * Explain.t option) Ivar.t;
      principal : string;
    }

type t = {
  index : int;
  live : Service.t Atomic.t;
      (* Swapped by online policy reload: the claim holder (or the quiescent
         owner) publishes a freshly staged service on the same journal base.
         Foreign domains read it for admission ([mem]: the service's name
         table no longer changes once published) and for journal
         watermarks (the racy-safe [Service.journal_position]). *)
  mutable cache : (int, Label.t) Label_cache.t option;
      (* Keyed by hash-consed query ids from the artifact's interner.
         Recreated on reload: labels from the old pipeline must never
         decide new-policy queries (and the fresh artifact's interner
         restarts its id space anyway). *)
  mutable artifact : Artifact.t;
      (* The AOT-compiled labeler for the live pipeline. Swapped together
         with the service on reload (version + 1); claim-holder only, like
         the cache. *)
  mailbox : msg Mailbox.t;
  metrics : Metrics.t;
  trace : Obs.Trace.t option;
  scope : Obs.Trace.scope option ref;
      (* The in-flight query's trace scope. A ref (not a mutable field)
         because the service's observe callback is built before this record
         exists and must share the cell. Claim-holder only. *)
  limits : Guard.limits option;
  journal : string option; (* this shard's journal base path *)
  segment_bytes : int;
  observe : Service.observation -> unit;
      (* The metrics/trace bridge passed to every service this shard owns —
         kept so a reload's staged service reports identically. *)
  group_commit : bool;
      (* Batch journal flushes across each round: the claim holder opens a
         Service batch before the round's first query, defers
         every ticket fill into [deferred], and fills them all after the one
         covering flush. Control messages (barrier/checkpoint/reload) force
         the flush first, so their ordering guarantees are unchanged. *)
  mutable deferred : (pending * Monitor.decision * Explain.t option) list;
      (* Decisions awaiting the covering flush, newest first. Claim-holder
         only. *)
  mutable last_cache : string;
      (* How the label cache handled the query being processed: "exact" on a
         hit of its one exact key, "miss" / "off" when the labeler ran, or
         "none" when the query refused before either was consulted. Reset at
         the top of every query; claim-holder only. Feeds the per-tier
         metrics and the explanation's [cache_level]. *)
  checkpoint_every : int; (* decisions between automatic checkpoints; 0 = never *)
  mutable decided : int; (* decisions since the last automatic checkpoint *)
  mutable processed : int; (* total queries processed, for the gc cadence *)
  resident : Store.budget option;
      (* The tiered-store budget, or None for the classic always-resident
         shard. Kept so reload can rebuild an equivalent store around the
         staged service. *)
  mutable store : Store.t option;
      (* The tiered principal store wrapping [service] when [resident] is
         set. Claim-holder only, like the service it manages. *)
}

(* The spill file sits next to the shard's journal segments; a journal-less
   shard gets a private temp file (the spill is process-private scratch
   either way — never a durability artifact). *)
let spill_path ~index journal =
  match journal with
  | Some base -> Disclosure.Journal.spill_path base
  | None -> Filename.temp_file (Printf.sprintf "disclosure-spill%d-" index) ""

let create ~index ?limits ?journal ?(segment_bytes = 0) ?(checkpoint_every = 0) ?trace
    ~mailbox_capacity ~cache_capacity ?(drain = 64) ?(group_commit = false) ?resident
    ~metrics pipeline =
  if checkpoint_every < 0 then invalid_arg "Shard.create: checkpoint_every must be >= 0";
  let scope = ref None in
  let observe (o : Service.observation) =
    let stage =
      match o.stage with
      | `Admit -> Metrics.Admit
      | `Label -> Metrics.Label
      | `Decide -> Metrics.Decide
      | `Journal -> Metrics.Journal
      | `Checkpoint ->
        Metrics.incr metrics Metrics.Checkpoints;
        Metrics.Checkpoint
      | `Rotate ->
        Metrics.incr metrics Metrics.Rotations;
        Metrics.Rotate
      | `Fault_in -> Metrics.Fault_in
    in
    Metrics.record metrics stage o.seconds;
    match !scope with
    | Some sc ->
      Obs.Trace.record sc ~name:(Metrics.stage_name stage) ~attrs:o.detail
        ~seconds:o.seconds
    | None -> ()
  in
  let service = Service.create ?limits ?journal ~segment_bytes ~observe pipeline in
  let store =
    match resident with
    | None -> None
    | Some budget ->
      Some (Store.create ~budget ~spill:(spill_path ~index journal) service)
  in
  let cache =
    if cache_capacity > 0 then Some (Label_cache.create ~capacity:cache_capacity)
    else None
  in
  {
    index;
    live = Atomic.make service;
    cache;
    artifact = Artifact.compile pipeline;
    mailbox = Mailbox.create ~capacity:mailbox_capacity ~drain ~metrics;
    metrics;
    trace;
    scope;
    limits;
    journal;
    segment_bytes;
    observe;
    group_commit;
    deferred = [];
    last_cache = "none";
    checkpoint_every;
    decided = 0;
    processed = 0;
    resident;
    store;
  }

let index t = t.index

let service t = Atomic.get t.live

let mailbox t = t.mailbox

let register t ~principal ~partitions =
  match t.store with
  | None -> Service.register (service t) ~principal ~partitions
  | Some store ->
    (* Straight into the store's fresh tier: no monitor and no eviction, so
       registering a million principals never touches the resident set. *)
    Store.register store ~principal ~partitions

let mem t principal = Service.mem (service t) principal

let journal_position t = Service.journal_position (service t)

(* --- observability helpers --------------------------------------------- *)

(* Like Metrics.time, but also emits a span into the in-flight scope.
   Stages inside the service report through the observe callback above;
   this covers the stages the shard runs itself (key interning, cache). *)
let timed t stage f =
  let t0 = Disclosure.Mclock.now_ns () in
  let finish () =
    let seconds = Disclosure.Mclock.elapsed_s ~since:t0 in
    Metrics.record t.metrics stage seconds;
    match !(t.scope) with
    | Some sc -> Obs.Trace.record sc ~name:(Metrics.stage_name stage) ~seconds
    | None -> ()
  in
  Fun.protect ~finally:finish f

(* Root-span attribute; free when the query is untraced. *)
let note t k v =
  match !(t.scope) with Some sc -> Obs.Trace.annotate sc k v | None -> ()

let flush_count t = Service.flush_count (service t)

(* Every per-shard gauge, written in one pass: on the decision cadence, at
   barriers, checkpoints and reloads, and at every stats or Prometheus
   scrape (so a scrape is exact even on an idle server). Off the claim the
   artifact, cache and store reads are racy word reads, exact on a
   quiescent or drained shard. *)
let sample t =
  let set = Metrics.set_gauge t.metrics ~shard:t.index in
  let gc = Gc.quick_stat () in
  set Metrics.Gc_minor_collections gc.Gc.minor_collections;
  set Metrics.Gc_major_collections gc.Gc.major_collections;
  set Metrics.Gc_promoted_words (int_of_float gc.Gc.promoted_words);
  set Metrics.Journal_flushes (Service.flush_count (service t));
  (match Service.journal_position (service t) with
  | None -> ()
  | Some (seq, bytes) ->
    set Metrics.Journal_segment seq;
    set Metrics.Journal_offset bytes);
  (match t.cache with
  | None -> ()
  | Some c ->
    set Metrics.Cache_entries (Label_cache.length c);
    set Metrics.Cache_capacity (Label_cache.capacity c));
  let c = Artifact.stats t.artifact in
  set Metrics.Compile_version c.Artifact.version;
  set Metrics.Compile_groups c.Artifact.groups;
  set Metrics.Diagram_groups c.Artifact.diagram_groups;
  set Metrics.Diagram_nodes c.Artifact.diagram_nodes;
  set Metrics.Compile_fallbacks c.Artifact.fallbacks;
  set Metrics.Atom_hits c.Artifact.atom_hits;
  set Metrics.Atom_misses c.Artifact.atom_misses;
  set Metrics.Query_hits c.Artifact.query_hits;
  set Metrics.Query_misses c.Artifact.query_misses;
  set Metrics.Intern_entries c.Artifact.intern_entries;
  set Metrics.Intern_capacity c.Artifact.intern_capacity;
  set Metrics.Intern_hits c.Artifact.intern_hits;
  set Metrics.Intern_misses c.Artifact.intern_misses;
  set Metrics.Intern_flushes c.Artifact.intern_flushes;
  match t.store with
  | None -> ()
  | Some store ->
    let s = Store.stats store in
    set Metrics.Resident_principals s.Store.stat_resident;
    set Metrics.Spilled_principals s.Store.stat_spilled;
    set Metrics.Fresh_principals s.Store.stat_fresh;
    set Metrics.Fault_ins s.Store.stat_fault_ins;
    set Metrics.Spill_writes s.Store.stat_spill_writes;
    set Metrics.Store_evictions s.Store.stat_evictions;
    set Metrics.Spill_bytes s.Store.stat_spill_bytes

(* Eviction runs at decision/batch boundaries, under the claim;
   [Store.enforce] is itself a no-op while a group-commit batch is open
   (mid-batch eviction would break the batch-abort rollback). *)
let enforce_store t = match t.store with Some s -> Store.enforce s | None -> ()

(* Spill-file compaction piggybacks on successful checkpoints: dead records
   accumulate as spilled principals fault back in, and a checkpoint is the
   natural quiescent point to drop them. *)
let compact_store t = match t.store with Some s -> Store.compact s | None -> ()

(* --- query handling --------------------------------------------------- *)

(* Labeling goes through the AOT-compiled artifact: same guarded run,
   admission checks, fault points, and timing observation as the
   interpreted [Service.label_query], with the labeling step swapped for
   the artifact (bit-identical by the compile library's contract, enforced
   by the differential suite in test_compile). *)
let label_query ?id t q =
  Service.label_query_with (service t)
    ~labeler:(fun ~budget q -> Artifact.label ~budget ?id t.artifact q)
    q

(* The uncached path is Service.submit split in two ([label_query] then
   [submit_label] / [refuse]) so the cached path below can splice a lookup
   between the halves while journaling and deciding identically. *)
let uncached t ~principal q =
  note t "cache" "off";
  t.last_cache <- "off";
  match label_query t q with
  | Error reason -> Service.refuse (service t) ~principal reason
  | Ok label -> Service.submit_label (service t) ~principal label

(* Cache lookup keys on one exact id: the query's own (head, body)
   structure, hash-consed to an int by the artifact's interner. Interned ids
   are monotone across interner flushes and the cache is recreated whenever
   the artifact is (reload), so a stale id can never alias a live entry.
   There is deliberately no reorder/rename-invariant or minimized key: it
   would cost a fold and a normal-form search per miss, more than the
   compiled labeling it could skip (which folds the query once itself), for
   almost no extra hits. A miss labels the ORIGINAL query, making the miss
   path byte-for-byte the sequential Service.submit, and hands the artifact
   the id just interned so the query is interned once per decision. *)
let cached t cache ~principal q =
  let svc = service t in
  match Guard.admit_query (Service.limits svc) q with
  | Error reason ->
    (* Sequential submit refuses at admission before labeling; refusing here
       keeps a cache hit from ever answering a query it would have shed. *)
    Service.refuse svc ~principal reason
  | Ok () -> (
    let k = timed t Metrics.Canonicalize (fun () -> Artifact.intern_query t.artifact q) in
    match timed t Metrics.Cache (fun () -> Label_cache.find cache k) with
    | Some label ->
      (* The miss path's label width is reported by the service's own
         `Label observation instead. *)
      Metrics.incr t.metrics Metrics.Cache_hit;
      note t "cache" "exact";
      t.last_cache <- "exact";
      (match !(t.scope) with
      | Some sc -> Obs.Trace.annotate sc "label_width" (string_of_int (Array.length label))
      | None -> ());
      Service.submit_label svc ~principal label
    | None -> (
      Metrics.incr t.metrics Metrics.Cache_miss;
      note t "cache" "miss";
      t.last_cache <- "miss";
      match label_query ~id:k t q with
      | Error reason -> Service.refuse svc ~principal reason
      | Ok label ->
        let before = Label_cache.evictions cache in
        timed t Metrics.Cache (fun () -> Label_cache.add cache k label);
        Metrics.add t.metrics Metrics.Cache_eviction (Label_cache.evictions cache - before);
        Service.submit_label svc ~principal label))

let handle t ~principal q =
  match t.cache with
  | None -> uncached t ~principal q
  | Some cache -> cached t cache ~principal q

(* Checkpoints get a forced (never sampled away) maintenance scope: the
   `Checkpoint / `Rotate observations from the service land as its
   children, so a checkpoint stall is visible in the trace next to the
   queries it delayed. *)
let checkpoint t =
  match t.trace with
  | None -> Service.checkpoint (service t)
  | Some tr ->
    let sc =
      Obs.Trace.query_begin tr ~track:t.index ~name:"maintenance" ~force:true
        ~principal:"-" ()
    in
    t.scope := Some sc;
    let finish outcome =
      t.scope := None;
      Obs.Trace.query_end sc ~outcome
    in
    (match Service.checkpoint (service t) with
    | result ->
      finish
        (match result with Ok () -> "checkpoint:ok" | Error _ -> "checkpoint:error");
      result
    | exception e ->
      finish "checkpoint:error";
      raise e)

(* The automatic cadence: every [checkpoint_every] decisions, checkpoint the
   shard's own journal — each shard seals, snapshots, and compacts its own
   segment family independently, with no cross-shard coordination. A failed
   checkpoint never affects the decision path: it is logged, durability
   stays on the full journal, and the next cadence point retries. *)
(* Split so group commit can count decisions per query but only trigger the
   checkpoint at a batch boundary (a checkpoint rotates, which a service
   refuses while its batch is open). *)
let note_decided t = if t.checkpoint_every > 0 then t.decided <- t.decided + 1

let checkpoint_if_due t =
  if t.checkpoint_every > 0 && t.decided >= t.checkpoint_every then begin
    t.decided <- 0;
    match checkpoint t with
    | Ok () -> compact_store t
    | Error msg ->
      Log.warn (fun m -> m "shard %d: automatic checkpoint failed: %s" t.index msg)
  end

let maybe_auto_checkpoint t =
  note_decided t;
  if not (Service.batch_active (service t)) then begin
    enforce_store t;
    checkpoint_if_due t
  end

let outcome_of = function
  | Monitor.Answered -> "answered"
  | Monitor.Refused reason -> "refused:" ^ Guard.refusal_to_tag reason

(* Which tier decided the query just handled: a label-cache hit, or the
   artifact's own deciding tier. [None] when the query refused before cache
   or labeler were consulted (admission, overload) — there is no tier to
   charge. Valid only immediately after [handle]: [Artifact.label] resets
   its escalation at entry, so [last_tier] describes exactly the query that
   just ran it. *)
let tier t =
  match t.last_cache with
  | "exact" -> Some Metrics.Cached
  | "off" | "miss" -> Some (Metrics.Compiled (Artifact.last_tier t.artifact))
  | _ -> None

(* The service captures everything it can see; the shard owns the two facts
   the service cannot know — which compiled tier labeled the query and which
   cache level served it — and stitches them into the explanation here. *)
let stitch_explain t e =
  let tier = match tier t with Some mt -> Metrics.tier_name mt | None -> e.Explain.tier in
  { e with Explain.tier; cache_level = t.last_cache }

(* Fill a ticket and bump the outcome counters — the one place clients are
   actually told, so the counters count what clients observed. *)
let settle t pending decision explanation =
  (match decision with
  | Monitor.Answered -> Metrics.incr t.metrics Metrics.Answered
  | Monitor.Refused _ -> Metrics.incr t.metrics Metrics.Refused);
  match pending with
  | Plain ticket -> ignore (Ivar.try_fill ticket decision)
  | Explained { ticket; _ } -> ignore (Ivar.try_fill ticket (decision, explanation))

(* --- online policy reload ---------------------------------------------- *)

(* Swap in a new policy configuration without dropping a single decision.
   Runs in a round (a [Reload] control message) or inline on a quiescent
   shard, so the mailbox serializes it against queries: every query is
   decided by exactly one policy version — the one live when its round
   dequeues it.

   The staged service opens the same journal base in append mode while the
   live one still holds it; that is safe because the claim holder owns both and
   nothing appends between staging and swap, so the staged byte count
   cannot go stale. Registration failures abort with the live service
   untouched (fail closed: the old policy keeps serving).

   Monitor state carries over only for principals whose partition lists are
   unchanged ({!Disclosure.Sview.equal} per view): their lattice is the
   same, so the cumulative-disclosure charge must survive the swap. A
   changed or new policy starts a fresh monitor — old charges are
   incomparable under a different lattice. The carry-over
   ([Service.carry_over]) compares lists once per pair of interned
   policies and is otherwise one walk over the old service's ids, so a
   reload holds the claim for time linear in the population.

   The swap ends with a checkpoint of the carried state: recovery then
   restores this snapshot and replays only new-policy records, never
   old-policy records through the new configuration (which would fail
   closed with [`Replay]). A failed post-swap checkpoint is logged, not
   surfaced — serving continuity wins, and recovery stays fail-closed
   until the next checkpoint succeeds. *)
let reload t ~pipeline ~principals =
  match
    let staged =
      Service.create ?limits:t.limits ?journal:t.journal
        ~segment_bytes:t.segment_bytes ~observe:t.observe pipeline
    in
    (match
       List.iter
         (fun (principal, partitions) ->
           Service.register staged ~principal ~partitions)
         principals
     with
    | () -> ()
    | exception e ->
      Service.close staged;
      raise e);
    (match Service.carry_over ~from:(service t) staged with
    | () -> ()
    | exception e ->
      Service.close staged;
      raise e);
    (* Compile the new pipeline's artifact before touching the live state:
       a compile failure aborts the reload with the old policy (and its
       artifact) still serving. The version bump is what tests and scrapes
       use to observe that a reload rebuilt the compiled state rather than
       serving stale labels. *)
    let artifact =
      Artifact.compile ~version:(Artifact.version t.artifact + 1) pipeline
    in
    (* The old store must release the spill file (and its tier hooks) before
       a new store truncates the same path — but only after the carry-over
       above, which still reads spilled state through the old tier. *)
    (match t.store with Some old -> Store.close old | None -> ());
    t.store <- None;
    (* Publish the staged service before closing the old one: a closed
       service reports no journal position, and a replication drain gate
       reading that [None] would skip this shard as caught up. *)
    let old = service t in
    Atomic.set t.live staged;
    Service.close old;
    (match t.resident with
    | None -> ()
    | Some budget -> (
      match
        let store =
          Store.create ~budget ~spill:(spill_path ~index:t.index t.journal) staged
        in
        for id = 0 to Service.count staged - 1 do
          Store.track store ~principal:(Service.name staged id)
        done;
        Store.enforce store;
        store
      with
      | store -> t.store <- Some store
      | exception e ->
        (* Degrade to always-resident rather than stop serving: the store is
           a memory bound, never a correctness dependency. *)
        Log.warn (fun m ->
            m
              "shard %d: tiered store rebuild failed after reload (serving \
               always-resident): %s"
              t.index (Printexc.to_string e))));
    t.artifact <- artifact;
    t.cache <-
      Option.map
        (fun c -> Label_cache.create ~capacity:(Label_cache.capacity c))
        t.cache;
    t.decided <- 0;
    (match t.journal with
    | None -> ()
    | Some _ -> (
      match Service.checkpoint staged with
      | Ok () -> ()
      | Error msg ->
        Log.warn (fun m ->
            m
              "shard %d: post-reload checkpoint failed (recovery fails closed on the \
               pre-reload history until the next checkpoint): %s"
              t.index msg)));
    sample t
  with
  | () -> Ok ()
  | exception e -> Error ("reload failed: " ^ Printexc.to_string e)

let rec process t msg =
  match msg with
  | Barrier iv ->
    (* Barriers are the quiescence points: resample so gauge reads right
       after a drain are exact, not up to a period stale. *)
    sample t;
    Ivar.fill iv ()
  | Checkpoint iv ->
    let r = checkpoint t in
    (match r with Ok () -> compact_store t | Error _ -> ());
    sample t;
    Ivar.fill iv r
  | Reload { pipeline; principals; reply } ->
    Ivar.fill reply (reload t ~pipeline ~principals)
  | Query { principal; query; ticket; enqueued_ns; ctx } ->
    serve t ~principal ~query ~enqueued_ns ~ctx ~explain:false (Plain ticket)
  | Explain { principal; query; ticket; enqueued_ns; ctx } ->
    serve t ~principal ~query ~enqueued_ns ~ctx ~explain:true
      (Explained { ticket; principal })

(* The shared body of [Query] and [Explain]: wait accounting, trace scope,
   decision, per-tier latency, ticket settlement (immediate or deferred to
   the covering group-commit flush). *)
and serve t ~principal ~query ~enqueued_ns ~ctx ~explain pending =
  let now = Disclosure.Mclock.now_ns () in
  let waited = enqueued_ns <> 0L && Int64.compare enqueued_ns now <= 0 in
  if waited then
    Metrics.record t.metrics Metrics.Wait
      (Int64.to_float (Int64.sub now enqueued_ns) /. 1e9);
  let sc_opt =
    match t.trace with
    | None -> None
    | Some tr ->
      (* The root span starts at enqueue time so the mailbox wait is inside
         the query, not unaccounted dead time before it. The scope is
         published to the observe bridge only when head-sampled: an unsampled
         query builds no children, notes, or attribute thunks on the fast
         path — tail retention can still keep its bare root at query_end. *)
      let sc =
        Obs.Trace.query_begin tr ~track:t.index
          ?start_ns:(if waited then Some enqueued_ns else None)
          ?ctx ~principal ()
      in
      if Obs.Trace.sampled sc then begin
        if waited then
          Obs.Trace.record_interval sc ~name:"wait" ~start_ns:enqueued_ns ~end_ns:now;
        t.scope := Some sc
      end;
      Some sc
  in
  if explain then Service.capture_begin (service t);
  t.last_cache <- "none";
  let t0 = Disclosure.Mclock.now_ns () in
  let decision =
    try handle t ~principal query
    with e ->
      (* Fail closed even on bugs in the shard itself; the service's own
         guard has already kept monitor state untouched. *)
      let reason = Guard.Fault (Printexc.to_string e) in
      (try Service.refuse (service t) ~principal reason
       with _ -> Monitor.Refused reason)
  in
  (match tier t with
  | Some tier -> Metrics.record_tier t.metrics tier (Disclosure.Mclock.elapsed_s ~since:t0)
  | None -> ());
  let explanation =
    if explain then Option.map (stitch_explain t) (Service.capture_take (service t))
    else None
  in
  (match sc_opt with
  | Some sc ->
    t.scope := None;
    (* Under group commit the span closes with the pre-flush decision; a
       batch abort later flips the *ticket* to a fault refusal, which the
       deferred fill below accounts for. *)
    Obs.Trace.query_end sc ~outcome:(outcome_of decision)
  | None -> ());
  if t.group_commit && Service.batch_active (service t) then
    (* Ticket and outcome counters wait for the covering flush: the client
       must never observe a decision whose journal record is not durable,
       and a failed flush refuses the whole batch. *)
    t.deferred <- (pending, decision, explanation) :: t.deferred
  else settle t pending decision explanation;
  t.processed <- t.processed + 1;
  if t.processed mod sample_period = 0 then sample t;
  maybe_auto_checkpoint t

(* End the open group-commit batch and settle every deferred ticket. On a
   successful flush each ticket gets its decision; on a batch abort every
   ticket in the batch is refused with the abort's fault reason — the
   monitors were rolled back, so a refusal is the only answer consistent
   with both the live state and what recovery will replay. Outcome counters
   are bumped here (not at process time) so they count what clients were
   actually told. *)
let flush_group t =
  if Service.batch_active (service t) || t.deferred <> [] then begin
    let result = Service.batch_end (service t) in
    let deferred = List.rev t.deferred in
    t.deferred <- [];
    if deferred <> [] then
      (* Decisions per fsync: the histogram that shows whether group commit
         is actually amortizing (mean near 1 = no load, near [drain] =
         saturated). *)
      Metrics.record_size t.metrics Metrics.Group_batch (List.length deferred);
    (match result with
    | Ok () -> ()
    | Error reason ->
      Log.warn (fun m ->
          m "shard %d: group commit aborted, refusing %d decision(s): %s" t.index
            (List.length deferred)
            (Guard.refusal_to_tag reason)));
    List.iter
      (fun (pending, decision, explanation) ->
        let decision, explanation =
          match result with
          | Ok () -> (decision, explanation)
          | Error reason ->
            (* Batch abort: monitors were rolled back, so refusal is the only
               answer consistent with live state and replay. The captured
               explanation described the rolled-back decision — replace it
               with one naming the journal stage as the cause. *)
            let explanation =
              match pending with
              | Plain _ -> None
              | Explained { principal; _ } ->
                Some (Explain.refused ~principal ~stage:"journal" reason)
            in
            (Monitor.Refused reason, explanation)
        in
        settle t pending decision explanation)
      deferred;
    (* The batch is closed: this is the eviction point under group commit. *)
    enforce_store t;
    checkpoint_if_due t
  end

(* One round, on whichever caller holds the shard's claim: messages run
   strictly in queue order, so the sequential-equivalence contract (and
   every barrier/reload ordering argument) holds no matter which caller
   runs it. With [group_commit], each round is also one journal batch: a
   Service batch opens before the first query, control messages force the
   covering flush first (so a barrier still implies every earlier decision
   is settled, and a checkpoint never sees an open batch), and the round
   ends with the flush that fills every deferred ticket. *)
let run_batch t batch =
  if t.group_commit then begin
    List.iter
      (fun msg ->
        match msg with
        | Query _ | Explain _ ->
          if not (Service.batch_active (service t)) then Service.batch_begin (service t);
          process t msg
        | Barrier _ | Checkpoint _ | Reload _ ->
          flush_group t;
          process t msg)
      batch;
    flush_group t
  end
  else List.iter (process t) batch

let fail_closed t ~stage reason msg =
  let refuse ticket v =
    if Ivar.try_fill ticket v then Metrics.incr t.metrics Metrics.Refused
  in
  match msg with
  | Query { ticket; _ } -> refuse ticket (Monitor.Refused (Guard.Fault reason))
  | Explain { ticket; principal; _ } ->
    let r = Guard.Fault reason in
    refuse ticket (Monitor.Refused r, Some (Explain.refused ~principal ~stage r))
  | Barrier iv -> ignore (Ivar.try_fill iv ())
  | Checkpoint iv -> ignore (Ivar.try_fill iv (Error reason))
  | Reload { reply; _ } -> ignore (Ivar.try_fill reply (Error reason))

(* A round that raises must not strand its callers: the open group-commit
   batch is flushed (its decisions are already committed to the monitors),
   and every ticket the round has not settled is refused fail-closed — the
   messages behind the failure never reached a monitor. *)
let round t batch =
  try run_batch t batch
  with e ->
    let reason = "shard round failed: " ^ Printexc.to_string e in
    Log.err (fun m -> m "shard %d: %s" t.index reason);
    t.scope := None;
    (try flush_group t with _ -> t.deferred <- []);
    List.iter (fail_closed t ~stage:"shard" reason) batch

let start t = Mailbox.start t.mailbox (round t)

let stop t = Mailbox.finish t.mailbox

(* A never-started shard decides nothing: its one and only round refuses
   whatever was queued. *)
let abandon t =
  Mailbox.start t.mailbox
    (List.iter (fail_closed t ~stage:"admit" "server stopped before start"));
  Mailbox.finish t.mailbox

let artifact t = t.artifact

let compile_stats t = Artifact.stats t.artifact

(* --- tiered principal store -------------------------------------------- *)

let store t = t.store

let store_stats t = Option.map Store.stats t.store

let close_store t =
  match t.store with
  | None -> ()
  | Some s ->
    Store.close s;
    t.store <- None
