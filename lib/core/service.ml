let src = Logs.Src.create "disclosure.service" ~doc:"Disclosure-control reference monitor"

module Log = (val Logs.src_log src : Logs.LOG)

type observation = {
  stage : [ `Admit | `Label | `Decide | `Journal | `Checkpoint | `Rotate | `Fault_in ];
  seconds : float;
  detail : (string * string) list;
}

(* A non-resident principal's state as the tier holds it: pristine (no
   record anywhere — the state is its policy's initial one), or a spilled
   record in the checkpoint's own codec, already verified, with the state
   it encodes. Either way with the principal's compiled policy. *)
type cold =
  | Pristine of Policy.t
  | Spilled of { policy : Policy.t; record : string; state : Monitor.state }

(* The tiered principal store's hooks (lib/store), keyed by the service's
   dense principal ids. Once a tier is installed, a principal's monitor
   slot holds a monitor only while it is resident: a vacant slot asks the
   tier to fault the principal back in ([tier_find], which adopts the
   rebuilt monitor and may raise [Guard.Refuse (Resource (Spill _))] on a
   corrupt spill record), every resident hit notifies it ([tier_touch], for
   its eviction clock), readers that must not disturb residency —
   [checkpoint], [snapshot] — open one view of the cold principals
   ([tier_cold]), and [recover] resets it alongside the monitors
   ([tier_reset]). *)
type tier = {
  tier_find : int -> Monitor.t option;
  tier_cold : unit -> int -> cold option;
  tier_touch : int -> unit;
  tier_reset : unit -> unit;
}

(* The monitor half of an open group-commit batch (see [batch_begin]); the
   journal half is the writer's pending bytes. Monitor commits happen
   inline (a later decision in the batch must see an earlier one's narrowed
   mask) but each touched principal's pre-batch state is saved so an abort
   can restore it. *)
type batch = {
  mutable records : int; (* records appended since [batch_begin] *)
  saved : (int, Monitor.state) Hashtbl.t; (* by principal id *)
}

type t = {
  pipeline : Pipeline.t;
  limits : Guard.limits;
  journal : Journal.Writer.t option;
      (* the active segment; its segment index is the one the next rotation
         seals *)
  segment_bytes : int; (* rotation threshold; 0 = never rotate *)
  mutable rotations : int;
  mutable checkpoints : int;
  mutable flushes : int; (* journal flushes issued (per-decision or per-batch) *)
  mutable batch : batch option;
  mutable warned_closed : bool;
  observe : (observation -> unit) option;
  policies : ((string * Sview.t list) list, Policy.t) Hashtbl.t;
      (* One compiled policy per structurally distinct partition list: every
         monitor built from an equal list shares it. *)
  (* The principal table. Registration interns a name once, to a dense id
     in registration order; [ids] is the only string-keyed table, and
     everything else per principal lives in id-indexed arrays that grow by
     doubling. Ids are never reused or renumbered. *)
  ids : (string, int) Hashtbl.t;
  mutable names : string array; (* id -> name; the first [count] are live *)
  mutable slots : Monitor.t array;
      (* id -> resident monitor, or [vacant] while a tier holds the
         principal's state *)
  mutable count : int;
  vacant : Monitor.t; (* the empty-slot sentinel, compared physically *)
  mutable tier : tier option;
  (* Provenance capture for the next submission (see [capture_begin]). Off by
     default; the disabled path costs one field load per capture point and
     allocates nothing — journal bytes and monitor state are identical either
     way because explanations are assembled strictly out of band. *)
  mutable capture_on : bool;
  mutable captured : Explain.t option;
  mutable cap_fuel : int option; (* labeling fuel burned, when fuel is limited *)
  mutable cap_tier : string; (* "interpreter" when this service's labeler ran *)
  mutable cap_t0 : int64; (* submission start, read only while capturing *)
}

exception Unknown_principal of string
exception Duplicate_principal of string

let create ?(limits = Guard.no_limits) ?journal ?(segment_bytes = 0) ?observe pipeline =
  if segment_bytes < 0 then invalid_arg "Service.create: segment_bytes must be >= 0";
  let journal =
    Option.map
      (fun base ->
        Journal.Writer.create ~stage:Faults.Journal_flush ~segment:(Journal.next_segment base)
          base)
      journal
  in
  {
    pipeline;
    limits;
    journal;
    segment_bytes;
    rotations = 0;
    checkpoints = 0;
    flushes = 0;
    batch = None;
    warned_closed = false;
    observe;
    policies = Hashtbl.create 16;
    ids = Hashtbl.create 16;
    names = [||];
    slots = [||];
    count = 0;
    vacant = Monitor.create (Policy.make (Pipeline.registry pipeline) [ ("", []) ]);
    tier = None;
    capture_on = false;
    captured = None;
    cap_fuel = None;
    cap_tier = "none";
    cap_t0 = 0L;
  }

(* --- provenance capture ------------------------------------------------- *)

let capture_begin t =
  t.capture_on <- true;
  t.captured <- None;
  t.cap_fuel <- None;
  t.cap_tier <- "none";
  t.cap_t0 <- Mclock.now_ns ()

let capture_take t =
  t.capture_on <- false;
  let e = t.captured in
  t.captured <- None;
  e

let cap_elapsed t = Int64.to_int (Int64.sub (Mclock.now_ns ()) t.cap_t0)

(* A refusal's explanation, with whatever context existed when it fired:
   pre-label refusals carry no witnesses, pre-monitor refusals no partition
   report. [Resource Fuel] refusals report the whole fuel budget as spent —
   by definition of the exhaustion. *)
let capture_refusal t ~principal ~stage ?label ?monitor reason =
  if t.capture_on then begin
    let fuel_spent =
      match (reason, t.cap_fuel) with
      | Guard.Resource Guard.Fuel, _ -> t.limits.Guard.fuel
      | _, spent -> spent
    in
    let mask_before = match monitor with Some m -> Monitor.alive_mask m | None -> 0 in
    let base =
      Explain.refused ~principal ~stage ?label ~mask_before ?fuel_spent
        ~elapsed_ns:(cap_elapsed t) reason
    in
    let e =
      match (label, monitor) with
      | Some l, Some m ->
        {
          base with
          Explain.atoms = Explain.witnesses (Pipeline.registry t.pipeline) l;
          partitions = Explain.partition_report (Monitor.policy m) ~mask_before l;
          tier = t.cap_tier;
        }
      | Some l, None ->
        {
          base with
          Explain.atoms = Explain.witnesses (Pipeline.registry t.pipeline) l;
          tier = t.cap_tier;
        }
      | None, _ -> base
    in
    t.captured <- Some e
  end

let capture_commit t ~principal ~m ~label ~encoded ~mask_before ~mask_after ~decision =
  if t.capture_on then
    t.captured <-
      Some
        {
          Explain.principal;
          decision;
          label = encoded;
          label_width = Array.length label;
          atoms = Explain.witnesses (Pipeline.registry t.pipeline) label;
          mask_before;
          mask_after;
          partitions = Explain.partition_report (Monitor.policy m) ~mask_before label;
          fuel_spent = t.cap_fuel;
          elapsed_ns = cap_elapsed t;
          tier = t.cap_tier;
          cache_level = "none";
          cause =
            (if decision = "answered" then []
             else Explain.cause_of_refusal ~stage:"decide" Guard.Policy);
        }

(* Instrumented sections for the serving layer's metrics: only pay for a
   clock read when an observer is attached. Monotonic time — a wall-clock
   step (NTP) must not poison the latency histograms. [detail] is forced
   only at observation time, so stages can report attributes (journal
   bytes, label width) computed inside the run without paying for them
   when nobody is watching. *)
let observed ?detail t stage f =
  match t.observe with
  | None -> f ()
  | Some observe ->
    let t0 = Mclock.now_ns () in
    let finish () =
      let detail = match detail with None -> [] | Some d -> d () in
      observe { stage; seconds = Mclock.elapsed_s ~since:t0; detail }
    in
    Fun.protect ~finally:finish f

let pipeline t = t.pipeline

let limits t = t.limits

let rotation_count t = t.rotations

let checkpoint_count t = t.checkpoints

(* The population's policies come from a handful of partition lists, so
   compiling per principal would rebuild the same masks over and over: equal
   lists share the first compiled policy. *)
let policy t partitions =
  match Hashtbl.find_opt t.policies partitions with
  | Some p -> p
  | None ->
    let p = Policy.make (Pipeline.registry t.pipeline) partitions in
    Hashtbl.add t.policies partitions p;
    p

(* --- the principal table ------------------------------------------------ *)

let check_new t principal =
  if Hashtbl.mem t.ids principal then raise (Duplicate_principal principal);
  if principal = "" then invalid_arg "Service.register: empty principal name"

(* Intern a new principal at the next id, with [m] in its slot. *)
let add t principal m =
  let id = t.count in
  if id = Array.length t.names then begin
    let cap = max 8 (2 * id) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 id;
      a'
    in
    t.names <- grow t.names "";
    t.slots <- grow t.slots t.vacant
  end;
  t.names.(id) <- principal;
  t.slots.(id) <- m;
  Hashtbl.add t.ids principal id;
  t.count <- id + 1;
  id

let register t ~principal ~partitions =
  check_new t principal;
  ignore (add t principal (Monitor.create (policy t partitions)));
  Log.info (fun m ->
      m "registered principal %s with %d partition(s)" principal (List.length partitions))

let enroll t ~principal =
  if t.tier = None then invalid_arg "Service.enroll: no tier installed";
  check_new t principal;
  add t principal t.vacant

let register_stateless t ~principal ~views =
  register t ~principal ~partitions:[ ("default", views) ]

let count t = t.count

let find t principal = Hashtbl.find_opt t.ids principal

let mem t principal = Hashtbl.mem t.ids principal

let id_exn t principal =
  match Hashtbl.find_opt t.ids principal with
  | Some id -> id
  | None -> raise (Unknown_principal principal)

let name t id =
  if id < 0 || id >= t.count then invalid_arg "Service.name: no such principal id";
  t.names.(id)

let principals t = List.init t.count (fun id -> t.names.(id))

(* --- tiered principal store hooks -------------------------------------- *)

let set_tier t tier =
  match t.tier with
  | Some _ -> invalid_arg "Service.set_tier: a tier is already installed"
  | None -> t.tier <- Some tier

let clear_tier t = t.tier <- None

let resident_at t id =
  let m = t.slots.(id) in
  if m == t.vacant then None else Some m

(* Hand a rebuilt monitor back to its slot (fault-in) and take one out of
   it (eviction). The id is untouched: registration order is the
   principal's identity in checkpoints and [principals], residency is
   not. *)
let adopt t id m =
  if t.slots.(id) != t.vacant then raise (Duplicate_principal t.names.(id));
  t.slots.(id) <- m

let detach t id =
  let m = t.slots.(id) in
  if m == t.vacant then raise (Unknown_principal t.names.(id));
  t.slots.(id) <- t.vacant;
  m

let resident_monitor t principal = Option.bind (find t principal) (resident_at t)

let monitor_at t id =
  let m = t.slots.(id) in
  if m != t.vacant then begin
    (match t.tier with Some tier -> tier.tier_touch id | None -> ());
    m
  end
  else
    match t.tier with
    | None -> raise (Unknown_principal t.names.(id))
    | Some tier -> (
      (* Fault-in blocks exactly this lookup for one spill-file read; other
         principals' queries on this shard were either ahead of it in the
         batch or see the adopted monitor. A corrupt record escapes as
         [Guard.Refuse (Resource (Spill _))] for the submission paths to
         journal as a typed refusal. *)
      match observed t `Fault_in (fun () -> tier.tier_find id) with
      | Some m -> m
      | None -> raise (Unknown_principal t.names.(id)))

let monitor_of t principal = monitor_at t (id_exn t principal)

(* One view of the non-resident principals, without disturbing residency —
   checkpoints and snapshots walk every id and must neither fault them all
   in nor advance the eviction clock. Opening the view may read the tier's
   spill file once; each lookup is then an array read. *)
let cold_view t =
  match t.tier with
  | None -> fun _ -> None
  | Some tier -> tier.tier_cold ()

(* Every principal's policy and state in id order, resident or not. *)
let iter_states t f =
  let cold = cold_view t in
  for id = 0 to t.count - 1 do
    let m = t.slots.(id) in
    if m != t.vacant then f t.names.(id) (Monitor.policy m) (Monitor.state m)
    else
      match cold id with
      | Some (Pristine policy) ->
        f t.names.(id) policy
          (Monitor.pristine_state ~partitions:(Policy.num_partitions policy))
      | Some (Spilled { policy; state; _ }) -> f t.names.(id) policy state
      | None -> raise (Unknown_principal t.names.(id))
  done

(* --- decision journal ------------------------------------------------- *)

(* One record per decision: (principal, label, decision), where the label is
   [Label.encode]'s hex form ("-" when the decision was reached before a
   label existed) and the decision is "answered", "refused:<tag>", or
   "reset". The v2 format (Journal) frames, escapes, and checksums each
   record; pre-v2 journals (raw TAB-separated lines) still replay but are
   never written. The segment's {!Journal.Writer} takes each record:
   "append; commit" per decision, or just "append" inside a group-commit
   batch, whose one covering commit is [batch_end]'s. The [Journal] fault
   stage trips before anything is written, the writer's [Journal_flush]
   stage after the record is buffered but before it is durable. *)

let live_journal t =
  match t.journal with Some w when Journal.Writer.is_open w -> Some w | _ -> None

(* Inside a batch a failed append poisons the writer, so every later
   append refuses and [batch_end] rolls the whole batch back. *)
let append_record t w s =
  match t.batch with
  | Some b -> (
    match Journal.Writer.poisoned w with
    | Some msg ->
      raise (Guard.Refuse (Guard.Fault ("journal batch already failed: " ^ msg)))
    | None ->
      Journal.Writer.append w s;
      b.records <- b.records + 1)
  | None ->
    Journal.Writer.write w s;
    t.flushes <- t.flushes + 1

(* Raises on failure, but the writer always reopens the active file, so the
   journal survives a failed rotation. *)
let rotate_exn t w =
  observed t `Rotate (fun () ->
      Faults.trip Faults.Rotate;
      Journal.Writer.seal w;
      t.rotations <- t.rotations + 1)

(* Never rotates inside an open batch: sealing would carry the buffered
   (not yet covered) records into the sealed segment. The frontier does not
   advance during a batch anyway, so the size check re-fires at
   [batch_end] once the commit lands. *)
let maybe_rotate t w =
  if t.batch = None && t.segment_bytes > 0 && Journal.Writer.committed w >= t.segment_bytes
  then
    try rotate_exn t w
    with e ->
      (* The decision's record is already durable in the active segment;
         a failed rotation only delays compaction, so it must not surface
         as a refusal. *)
      Log.warn (fun m ->
          m "journal rotation failed (continuing on the active segment): %s"
            (Printexc.to_string e))

let journal_append t ~principal ~label ~decision =
  let appended = ref 0 in
  match
    observed t `Journal
      ~detail:(fun () ->
        if !appended > 0 then [ ("journal_bytes", string_of_int !appended) ] else [])
      (fun () ->
        Faults.trip Faults.Journal;
        match t.journal with
        | None -> ()
        | Some w when not (Journal.Writer.is_open w) ->
          if not t.warned_closed then begin
            t.warned_closed <- true;
            Log.warn (fun m ->
                m
                  "journal closed but decisions are still being submitted — durability \
                   is lost from here on (decision for %s not journaled)"
                  principal)
          end
        | Some w ->
          let s = Journal.encode [ principal; label; decision ] in
          append_record t w s;
          appended := String.length s;
          maybe_rotate t w)
  with
  | () -> Ok ()
  | exception Guard.Refuse reason -> Error reason
  | exception e -> Error (Guard.Fault ("journal append: " ^ Printexc.to_string e))

let refused_line reason = "refused:" ^ Guard.refusal_to_tag reason

(* --- group commit ------------------------------------------------------ *)

let batch_active t = t.batch <> None

let flush_count t = t.flushes

let batch_begin t =
  if t.batch <> None then invalid_arg "Service.batch_begin: a batch is already open";
  t.batch <- Some { records = 0; saved = Hashtbl.create 8 }

(* Capture [principal]'s pre-batch monitor state (first touch only) so an
   aborted batch can restore it. Called by every commit path and by
   [reset]. *)
let batch_save t id m =
  match t.batch with
  | None -> ()
  | Some b -> if not (Hashtbl.mem b.saved id) then Hashtbl.add b.saved id (Monitor.state m)

(* Undo the whole batch: every touched monitor returns to its pre-batch
   state and the segment is rolled back to the committed frontier (none of
   the batch's bytes were covered by a flush, so recovery semantics are
   exactly as if each decision had individually failed its journal append
   before commit). *)
let batch_abort t b msg =
  Hashtbl.iter
    (fun id st -> Option.iter (fun m -> Monitor.restore m st) (resident_at t id))
    b.saved;
  Option.iter Journal.Writer.rollback (live_journal t);
  t.batch <- None;
  Error (Guard.Fault msg)

let batch_end t =
  match t.batch with
  | None -> Ok ()
  | Some b -> (
    match Option.map (fun w -> (w, Journal.Writer.poisoned w)) (live_journal t) with
    | Some (_, Some msg) -> batch_abort t b ("journal batch aborted: " ^ msg)
    | Some (w, None) when b.records > 0 -> (
      let bytes = Journal.Writer.pending w in
      match
        observed t `Journal
          ~detail:(fun () ->
            [
              ("journal_bytes", string_of_int bytes);
              ("group_records", string_of_int b.records);
            ])
          (fun () -> Journal.Writer.commit w)
      with
      | () ->
        t.flushes <- t.flushes + 1;
        t.batch <- None;
        maybe_rotate t w;
        Ok ()
      | exception e -> batch_abort t b ("journal batch flush: " ^ Printexc.to_string e))
    | _ ->
      (* Nothing appended, or the journal closed or was never configured:
         there is nothing durable to commit, and the monitor commits
         already happened inline. *)
      t.batch <- None;
      Ok ())

let close t =
  (* Ending any open batch first keeps [close]'s contract ("durable up to
     the last submission"): closing the writer would flush the buffered
     records anyway, but without advancing the committed frontier or
     running the abort path — so settle the batch properly first. *)
  (match batch_end t with
  | Ok () -> ()
  | Error reason ->
    Log.warn (fun m ->
        m "open journal batch failed at close (its decisions were rolled back): %s"
          (Guard.refusal_to_tag reason)));
  Option.iter Journal.Writer.close t.journal

(* --- checkpoints ------------------------------------------------------- *)

(* A pristine monitor's checkpoint fields, escaped and TAB-prefixed, per
   partition count: every policy with [k] partitions starts from the same
   state, so one encoding serves the whole idle population. *)
let pristine_fields =
  Array.init (Monitor.max_partitions + 1) (fun partitions ->
      if partitions = 0 then ""
      else
        Monitor.state_fields (Monitor.pristine_state ~partitions)
        |> List.concat_map (fun f -> [ "\t"; Journal.escape f ])
        |> String.concat "")

(* Serialize every monitor's state with the same record codec as the
   journal: a header record carrying the covered-segment bound, then one
   record per principal, installed atomically ({!Journal.install_checkpoint}):
   a crash anywhere leaves either the old checkpoint or the new one. *)
let checkpoint t =
  match t.journal with
  | None -> Error "Service.checkpoint: no journal configured"
  | Some w when not (Journal.Writer.is_open w) -> Error "Service.checkpoint: journal is closed"
  | Some _ when t.batch <> None ->
    (* The checkpoint's rotate would seal buffered, uncovered records into a
       numbered segment. Callers (the shard) end the batch first. *)
    Error "Service.checkpoint: a journal batch is open"
  | Some w -> (
    match
      observed t `Checkpoint (fun () ->
          (* Rotate first: the snapshot below covers everything appended so
             far, so the active segment must be sealed under a numbered name
             or recovery would replay its records on top of the checkpoint.
             A failed rotation aborts the checkpoint. *)
          if Journal.Writer.committed w > 0 then rotate_exn t w;
          let covers = fst (Journal.Writer.position w) - 1 in
          let buf = Buffer.create (64 * (t.count + 1)) in
          Journal.add_record buf (Journal.ckpt_header ~covers ~count:t.count);
          (* The cold view, not [monitor_of]: a checkpoint must not fault
             every spilled principal in (or touch the eviction clock). It
             copies rather than re-encodes: a spilled record is already in
             this codec (verified on the way), and a pristine principal's
             fields are the shared encoding of its partition count — so the
             bytes are identical to the always-resident write. *)
          let cold = cold_view t in
          for id = 0 to t.count - 1 do
            let principal = t.names.(id) and m = t.slots.(id) in
            if m != t.vacant then
              Journal.add_record buf
                ("p" :: principal :: Monitor.state_fields (Monitor.state m))
            else
              match cold id with
              | Some (Pristine policy) ->
                Journal.add_payload buf
                  (String.concat ""
                     [
                       "p\t";
                       Journal.escape principal;
                       pristine_fields.(Policy.num_partitions policy);
                     ])
              | Some (Spilled { record; _ }) -> Buffer.add_string buf record
              | None -> raise (Unknown_principal principal)
          done;
          Journal.install_checkpoint (Journal.Writer.path w) (fun oc -> Buffer.output_buffer oc buf);
          t.checkpoints <- t.checkpoints + 1;
          (* Compaction: segments at or below the bound are superseded by the
             checkpoint. A failed delete only leaves garbage recovery will
             skip. *)
          List.iter
            (fun (i, path) ->
              if i <= covers then
                try Sys.remove path
                with Sys_error msg ->
                  Log.warn (fun m -> m "compaction could not remove %s: %s" path msg))
            (Journal.sealed_segments (Journal.Writer.path w)))
    with
    | () -> Ok ()
    | exception e -> Error ("checkpoint failed: " ^ Printexc.to_string e))

(* --- guarded submission ----------------------------------------------- *)

let guarded_label_with labeler t q =
  let width = ref (-1) in
  observed t `Label
    ~detail:(fun () ->
      if !width >= 0 then [ ("label_width", string_of_int !width) ] else [])
    (fun () ->
      Guard.run t.limits (fun budget ->
          Faults.trip Faults.Admission;
          (match Guard.admit_query t.limits q with
          | Ok () -> ()
          | Error r -> raise (Guard.Refuse r));
          let label = labeler ~budget q in
          (match Guard.admit_label t.limits label with
          | Ok () -> ()
          | Error r -> raise (Guard.Refuse r));
          width := List.length (Label.atoms label);
          if t.capture_on then begin
            t.cap_tier <- "interpreter";
            t.cap_fuel <-
              (match (t.limits.Guard.fuel, Cq.Budget.remaining_fuel budget) with
              | Some limit, Some left -> Some (limit - left)
              | _ -> None)
          end;
          label))

let label_query t q =
  guarded_label_with (fun ~budget q -> Pipeline.label ~budget t.pipeline q) t q

let label_query_with t ~labeler q = guarded_label_with labeler t q

(* Decide, journal, then commit — in that order. A refusal for any non-policy
   reason leaves the monitor bit-identical (not even a counter moves); a
   journal failure downgrades the decision to a fault refusal before anything
   was committed, so recovery from the journal can never be ahead of or
   behind the live state. *)
let decide_and_commit t ~principal ~id m label =
  let encoded = Label.encode label in
  let mask_before = Monitor.alive_mask m in
  match
    observed t `Decide (fun () ->
        Guard.run t.limits (fun _budget ->
            Faults.trip Faults.Decide;
            Monitor.evaluate m label))
  with
  | Error reason ->
    ignore (journal_append t ~principal ~label:encoded ~decision:(refused_line reason));
    capture_refusal t ~principal ~stage:"decide" ~label ~monitor:m reason;
    Monitor.Refused reason
  | Ok None -> (
    match journal_append t ~principal ~label:encoded ~decision:(refused_line Guard.Policy) with
    | Ok () ->
      batch_save t id m;
      Monitor.commit_refusal m;
      capture_commit t ~principal ~m ~label ~encoded ~mask_before ~mask_after:mask_before
        ~decision:(refused_line Guard.Policy);
      Monitor.Refused Guard.Policy
    | Error reason ->
      capture_refusal t ~principal ~stage:"journal" ~label ~monitor:m reason;
      Monitor.Refused reason)
  | Ok (Some surviving) -> (
    match journal_append t ~principal ~label:encoded ~decision:"answered" with
    | Ok () ->
      batch_save t id m;
      Monitor.commit_answer m ~surviving;
      capture_commit t ~principal ~m ~label ~encoded ~mask_before ~mask_after:surviving
        ~decision:"answered";
      Monitor.Answered
    | Error reason ->
      capture_refusal t ~principal ~stage:"journal" ~label ~monitor:m reason;
      Monitor.Refused reason)

(* A failed fault-in refuses the touching query fail-closed, like any other
   pre-decision failure: journaled as a typed refusal (no monitor exists to
   commit anything on), every resident monitor bit-identical. *)
let fault_in_refused t ~principal reason =
  ignore (journal_append t ~principal ~label:"-" ~decision:(refused_line reason));
  capture_refusal t ~principal ~stage:"fault-in" reason;
  Monitor.Refused reason

let submit_label t ~principal label =
  let id = id_exn t principal in
  match monitor_at t id with
  | exception Guard.Refuse reason -> fault_in_refused t ~principal reason
  | m ->
  let decision =
    match
      (* The admission check is its own observed stage: the cached serving
         path skips labeling entirely, and without this the first timed
         stage a cache hit reaches would be the decision — leaving the
         admission cost invisible in traces. *)
      observed t `Admit (fun () ->
          Guard.run t.limits (fun _budget ->
              Faults.trip Faults.Admission;
              match Guard.admit_label t.limits label with
              | Ok () -> ()
              | Error r -> raise (Guard.Refuse r)))
    with
    | Error reason ->
      ignore
        (journal_append t ~principal ~label:(Label.encode label)
           ~decision:(refused_line reason));
      capture_refusal t ~principal ~stage:"admit" ~label ~monitor:m reason;
      Monitor.Refused reason
    | Ok () -> decide_and_commit t ~principal ~id m label
  in
  Log.debug (fun f ->
      f "%s: %a (alive: %s)" principal Monitor.pp_decision decision
        (String.concat "," (Monitor.alive m)));
  decision

(* Journal a refusal decided outside the service (overload shedding, a failed
   cached-labeling path). Policy refusals are excluded: they commit monitor
   state and must go through {!submit}/{!submit_label}. *)
let refuse t ~principal ?label reason =
  (match reason with
  | Guard.Policy -> invalid_arg "Service.refuse: policy refusals must go through submit"
  | _ -> ());
  match monitor_of t principal with
  | exception Guard.Refuse r -> fault_in_refused t ~principal r
  | m ->
    let stage = match reason with Guard.Overload -> "overload" | _ -> "label" in
    capture_refusal t ~principal ~stage ?label ~monitor:m reason;
    let label = match label with Some l -> Label.encode l | None -> "-" in
    ignore (journal_append t ~principal ~label ~decision:(refused_line reason));
    Monitor.Refused reason

let submit t ~principal q =
  let id = id_exn t principal in
  match monitor_at t id with
  | exception Guard.Refuse reason -> fault_in_refused t ~principal reason
  | m ->
  let decision =
    match label_query t q with
    | Error reason ->
      ignore (journal_append t ~principal ~label:"-" ~decision:(refused_line reason));
      capture_refusal t ~principal ~stage:"label" ~monitor:m reason;
      Monitor.Refused reason
    | Ok label -> decide_and_commit t ~principal ~id m label
  in
  Log.info (fun f -> f "%s: %a -> %a" principal Cq.Query.pp q Monitor.pp_decision decision);
  decision

let answer t ~principal ~db q =
  match submit t ~principal q with
  | Monitor.Refused _ -> None
  | Monitor.Answered -> (
    match Answer.via_views t.pipeline db q with
    | Some rel -> Some rel
    | None ->
      (* An answered query always has a non-⊤ label (some partition covers
         every atom), so reconstruction cannot fail. *)
      assert false)

let alive t ~principal = Monitor.alive (monitor_of t principal)

let stats t ~principal =
  let m = monitor_of t principal in
  (Monitor.answered_count m, Monitor.refused_count m)

let reset t ~principal =
  let id = id_exn t principal in
  let m = monitor_at t id in
  batch_save t id m;
  Monitor.reset m;
  ignore (journal_append t ~principal ~label:"-" ~decision:"reset")

(* The writer's committed frontier, for replication readers on other
   domains ({!Journal.Writer.position}: racy but memory-safe). *)
let journal_position t = Option.map Journal.Writer.position (live_journal t)

(* --- snapshot & recovery ----------------------------------------------- *)

let snapshot t =
  let states = ref [] in
  iter_states t (fun principal _ st -> states := (principal, st) :: !states);
  List.rev !states

module Policy_tbl = Hashtbl.Make (struct
  type t = Policy.t

  let equal = ( == )

  let hash = Hashtbl.hash
end)

let partitions_equal ps qs =
  List.equal
    (fun (n1, vs1) (n2, vs2) -> String.equal n1 n2 && List.equal Sview.equal vs1 vs2)
    ps qs

(* Each interned policy's partition list, keyed by the policy itself. *)
let policy_keys t =
  let keys = Policy_tbl.create 16 in
  Hashtbl.iter (fun partitions p -> Policy_tbl.replace keys p partitions) t.policies;
  keys

(* A policy shares a compiled [Policy.t] with every equal partition list, so
   the verdict for one (old, new) pair of policies holds for every
   principal on that pair: the lists are compared once per pair, and the
   walk over [from]'s ids is otherwise a name probe and a restore. *)
let carry_over ~from t =
  let old_keys = policy_keys from and new_keys = policy_keys t in
  let verdicts = Policy_tbl.create 16 in
  let carries p_old p_new =
    let known = Option.value ~default:[] (Policy_tbl.find_opt verdicts p_old) in
    match List.assq_opt p_new known with
    | Some carried -> carried
    | None ->
      let carried =
        partitions_equal (Policy_tbl.find old_keys p_old) (Policy_tbl.find new_keys p_new)
      in
      Policy_tbl.replace verdicts p_old ((p_new, carried) :: known);
      carried
  in
  iter_states from (fun principal p_old st ->
      match find t principal with
      | None -> ()
      | Some id ->
        let m = monitor_at t id in
        if carries p_old (Monitor.policy m) then Monitor.restore m st)

type recovery_error = {
  file : string;
  offset : int;
  kind : [ `Io | `Corrupt_record | `Corrupt_checkpoint | `Replay ];
  detail : string;
}

let recovery_error_to_string e = Printf.sprintf "%s:%d: %s" e.file e.offset e.detail

type recovery = {
  applied : int;
  from_checkpoint : bool;
  torn_tail : bool;
}

(* Re-apply one journaled decision. [Error (kind, msg)] is always fatal for
   a complete record: a CRC-valid v2 record (or a complete legacy line) with
   an unknown principal, an undecodable label, or a replay disagreement is
   damage truncation cannot explain. *)
(* Tier-aware lookup for the replay paths: a spilled principal is faulted in
   (replay commits to the live monitor), and a fault-in failure is surfaced
   as a fatal replay error — recovery must fail closed, not skip records. *)
let resident_or_fault t principal =
  match find t principal with
  | None -> None
  | Some id -> (
    match t.slots.(id) with
    | m when m != t.vacant ->
      (match t.tier with Some tier -> tier.tier_touch id | None -> ());
      Some m
    | _ -> (
      match t.tier with
      | None -> None
      | Some tier -> tier.tier_find id))

let apply_decision t ~principal ~label_s ~decision =
  match resident_or_fault t principal with
  | exception Guard.Refuse reason ->
    Error
      ( `Io,
        Format.asprintf "fault-in failed during replay: %a" Guard.pp_refusal reason )
  | None -> Error (`Replay, Printf.sprintf "unknown principal %S" principal)
  | Some m -> (
    match decision with
    | "reset" ->
      Monitor.reset m;
      Ok ()
    | "answered" -> (
      match Label.decode (if label_s = "-" then "" else label_s) with
      | Error e -> Error (`Replay, e)
      | Ok label -> (
        match Monitor.evaluate m label with
        | Some surviving ->
          Monitor.commit_answer m ~surviving;
          Ok ()
        | None ->
          Error
            ( `Replay,
              "journaled answer is refused on replay — journal and policy configuration \
               disagree" )))
    | _ -> (
      match String.length decision >= 8 && String.sub decision 0 8 = "refused:" with
      | false -> Error (`Replay, Printf.sprintf "unknown decision %S" decision)
      | true -> (
        let tag = String.sub decision 8 (String.length decision - 8) in
        match Guard.refusal_of_tag tag with
        | None -> Error (`Replay, Printf.sprintf "unknown refusal tag %S" tag)
        | Some Guard.Policy ->
          (* Only policy refusals touched the live monitor. *)
          Monitor.commit_refusal m;
          Ok ()
        | Some _ -> Ok ())))

(* The unit step of recovery's replay and of a replication follower's
   apply: one decision record, checked for shape, then applied. *)
let apply_record ?(on_record = fun ~principal:_ ~label:_ ~decision:_ -> ()) t fields =
  match fields with
  | [ principal; label_s; decision ] ->
    Result.map
      (fun () -> on_record ~principal ~label:label_s ~decision)
      (apply_decision t ~principal ~label_s ~decision)
  | _ ->
    Error
      ( `Corrupt_record,
        Printf.sprintf "record has %d field(s), decision records have 3" (List.length fields) )

(* Journals nothing: the follower mirrors the primary's bytes verbatim. *)
let apply_journal_record t fields = Result.map_error snd (apply_record t fields)

(* Replay one v2 segment. The framing layer (Journal) has already separated
   torn-tail damage from corruption; a torn tail is tolerated only in the
   final file of the replay sequence — an interior segment was sealed by
   rotation and cannot legitimately end mid-record. *)
let replay_v2 t ~file ~tolerate_torn ~on_record =
  match Journal.read_file file with
  | exception Sys_error msg -> Error { file; offset = 0; kind = `Io; detail = msg }
  | Error c ->
    Error
      { file; offset = c.Journal.corrupt_offset; kind = `Corrupt_record;
        detail = c.Journal.corrupt_reason }
  | Ok (records, torn) -> (
    match torn with
    | Some torn when not tolerate_torn ->
      Error
        {
          file;
          offset = torn.Journal.torn_offset;
          kind = `Corrupt_record;
          detail =
            "torn record in a sealed (non-final) segment — rotation closes segments \
             cleanly, so this is corruption: " ^ torn.Journal.torn_reason;
        }
    | _ ->
      Option.iter
        (fun (tr : Journal.torn) ->
          Log.warn (fun m ->
              m "%s: dropping torn final record at byte %d (partial write at crash): %s"
                file tr.Journal.torn_offset tr.Journal.torn_reason))
        torn;
      let rec loop applied = function
        | [] ->
          Ok (applied, Option.map (fun (tr : Journal.torn) -> tr.Journal.torn_offset) torn)
        | ({ Journal.offset; fields } : Journal.record) :: rest -> (
          match apply_record ~on_record t fields with
          | Ok () -> loop (applied + 1) rest
          | Error (kind, detail) -> Error { file; offset; kind; detail })
      in
      loop 0 records)

(* Replay one legacy TSV segment (pre-v2 journals). Without framing, torn
   damage is recognized structurally: an error that truncation from the
   right could explain (missing fields, a strict prefix of a valid decision
   or refusal tag), on the file's final line only. *)
let replay_legacy t ~file ~tolerate_torn ~on_record =
  match open_in_bin file with
  | exception Sys_error msg -> Error { file; offset = 0; kind = `Io; detail = msg }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let apply line =
          let torn fmt = Printf.ksprintf (fun s -> `Torn s) fmt in
          let fatal kind fmt = Printf.ksprintf (fun s -> `Fatal (kind, s)) fmt in
          if String.trim line = "" then `Noop
          else
            match String.split_on_char '\t' line with
            | [ principal; label_s; decision ] -> (
              match apply_decision t ~principal ~label_s ~decision with
              | Ok () ->
                on_record ~principal ~label:label_s ~decision;
                `Applied
              | Error (kind, msg) -> (
                (* Only damage truncation could have produced is torn: an
                   unknown decision word or refusal tag that is a strict
                   prefix of a valid one. Unknown principals, undecodable
                   labels, and replay disagreements are complete-record
                   errors and stay fatal. *)
                let is_prefix_of whole part =
                  String.length part < String.length whole
                  && String.sub whole 0 (String.length part) = part
                in
                let truncation_damage =
                  is_prefix_of "answered" decision || is_prefix_of "reset" decision
                  || is_prefix_of "refused:" decision
                  || (String.length decision >= 8
                     && String.sub decision 0 8 = "refused:"
                     && Guard.refusal_of_tag
                          (String.sub decision 8 (String.length decision - 8))
                        = None)
                in
                match (kind, truncation_damage) with
                | `Replay, true -> torn "truncated decision %S" decision
                | kind, _ -> fatal kind "%s" msg))
            | _ :: _ :: _ :: _ :: _ -> fatal `Corrupt_record "malformed journal line %S" line
            | _ -> torn "malformed journal line %S" line
        in
        (* Each line is paired with its starting byte offset so a tolerated
           torn final line can be truncated away. *)
        let input () =
          let off = pos_in ic in
          Option.map (fun line -> (off, line)) (In_channel.input_line ic)
        in
        let rec loop lineno pending applied =
          match pending with
          | None -> Ok (applied, None)
          | Some (off, line) -> (
            let next = input () in
            match apply line with
            | `Noop -> loop (lineno + 1) next applied
            | `Applied -> loop (lineno + 1) next (applied + 1)
            | `Fatal (kind, msg) -> Error { file; offset = lineno; kind; detail = msg }
            | `Torn msg ->
              if next = None && tolerate_torn then begin
                Log.warn (fun m ->
                    m "stopping at torn final journal line (partial write at crash): %s" msg);
                Ok (applied, Some off)
              end
              else
                Error
                  { file; offset = lineno; kind = `Corrupt_record; detail = msg })
        in
        loop 1 (input ()) 0)

(* Load and apply <base>.ckpt. A checkpoint is written atomically (tmp +
   fsync + rename), so unlike the active segment it has no torn-tail excuse:
   any damage is corruption, and because compaction may already have deleted
   the segments it covers, recovery must fail closed rather than fall back
   to a partial replay. *)
let load_checkpoint t base =
  let file = Journal.ckpt_path base in
  if not (Sys.file_exists file) then Ok (0, false)
  else
    let corrupt offset detail = Error { file; offset; kind = `Corrupt_checkpoint; detail } in
    match Journal.read_file file with
    | exception Sys_error msg -> Error { file; offset = 0; kind = `Io; detail = msg }
    | Error c -> corrupt c.Journal.corrupt_offset c.Journal.corrupt_reason
    | Ok (_, Some torn) ->
      corrupt torn.Journal.torn_offset
        ("torn checkpoint — checkpoints are written atomically, so this is corruption: "
        ^ torn.Journal.torn_reason)
    | Ok ([], None) -> corrupt 0 "empty checkpoint"
    | Ok (header :: entries, None) -> (
      match Journal.parse_ckpt_header header.Journal.fields with
      | Error msg -> corrupt header.Journal.offset msg
      | Ok (_, count) when count <> List.length entries ->
        corrupt header.Journal.offset "malformed checkpoint header"
      | Ok (covers, _) ->
        let rec apply = function
          | [] -> Ok (covers, true)
          | ({ Journal.offset; fields } : Journal.record) :: rest -> (
            match fields with
            | "p" :: principal :: state_fields -> (
              match
                (resident_or_fault t principal, Monitor.state_of_fields state_fields)
              with
              | exception Guard.Refuse reason ->
                Error
                  { file; offset; kind = `Io;
                    detail =
                      Format.asprintf "fault-in failed during checkpoint restore: %a"
                        Guard.pp_refusal reason }
              | None, _ ->
                Error
                  { file; offset; kind = `Replay;
                    detail = Printf.sprintf "unknown principal %S in checkpoint" principal }
              | Some m, Some st -> (
                match Monitor.restore m st with
                | () -> apply rest
                | exception Invalid_argument msg ->
                  Error { file; offset; kind = `Replay; detail = msg })
              | Some _, None -> corrupt offset "malformed checkpoint entry")
            | _ -> corrupt offset "malformed checkpoint entry")
        in
        apply entries)

(* A recovery-time repair of [file]; its failure is a typed [`Io] error:
   recovery must not hand back a service whose journal is not
   append-safe. *)
let repair ~file ?(offset = 0) what f =
  match f () with
  | () -> Ok ()
  | exception e ->
    Error { file; offset; kind = `Io; detail = what ^ ": " ^ Printexc.to_string e }

(* A tolerated torn tail must also come off the disk: the active segment is
   held open for appending ({!create}), so leaving the partial record in
   place would concatenate the first post-recovery decision onto it — and
   the *next* recovery would fail closed on the merged line, defeating
   durability exactly on the ordinary crash / restart / crash sequence.
   When this service holds the file (the Server.create-then-recover path),
   its writer truncates and moves its frontier back, so appends resume at
   the commit point; otherwise the file is truncated by path, healing it
   for whoever opens it next. *)
let truncate_torn_tail t ~file ~offset =
  repair ~file ~offset "failed to truncate the torn tail" (fun () ->
      match live_journal t with
      | Some w when Journal.Writer.path w = file -> Journal.Writer.truncate w offset
      | _ -> Journal.truncate_file file offset)

(* Nothing writes the legacy format any more, so an active segment still in
   it must not receive the next (v2) append: format detection is per file,
   and a mixed file fails the next recovery closed on its first v2 line.
   Once replayed, a non-empty legacy active segment is sealed under the
   next segment index (through this service's writer when it holds the
   file, so appends resume on a fresh v2 file), leaving one format per
   file. *)
let seal_legacy_active t base =
  if Journal.file_size base = 0 || Journal.is_v2_file base then Ok ()
  else
    repair ~file:base "failed to seal the legacy active segment" (fun () ->
        match live_journal t with
        | Some w when Journal.Writer.path w = base -> rotate_exn t w
        | _ -> Journal.seal_active base)

let recover ?(on_record = fun ~principal:_ ~label:_ ~decision:_ -> ()) t ~journal:base =
  for id = 0 to t.count - 1 do
    Option.iter Monitor.reset (resident_at t id)
  done;
  (* The journal is the authority: whatever the tier spilled before the
     restart is stale against the replay below, so the tier forgets it
     (non-resident principals become pristine, the spill file is reset) and
     rebuilds its spilled set as the replay's own evictions write it. *)
  (match t.tier with Some tier -> tier.tier_reset () | None -> ());
  let ( let* ) = Result.bind in
  let* covers, from_checkpoint = load_checkpoint t base in
  let rotated = List.filter (fun (i, _) -> i > covers) (Journal.sealed_segments base) in
  (* Rotation hands out consecutive indices and compaction removes a prefix
     (everything at or below the checkpoint bound), so the surviving indices
     must be exactly covers+1, covers+2, …: a hole means a segment's records
     are gone, and replay must fail closed rather than silently skip them. *)
  let* () =
    let rec check expected = function
      | [] -> Ok ()
      | (i, _) :: rest ->
        if i = expected then check (i + 1) rest
        else
          Error
            {
              file = Journal.segment_path base expected;
              offset = 0;
              kind = `Io;
              detail =
                Printf.sprintf "missing journal segment %d (next surviving segment is %d)"
                  expected i;
            }
    in
    check (covers + 1) rotated
  in
  let files =
    List.map snd rotated @ (if Sys.file_exists base then [ base ] else [])
  in
  if files = [] && not from_checkpoint then
    Error
      {
        file = base;
        offset = 0;
        kind = `Io;
        detail = base ^ ": no journal, segments, or checkpoint found";
      }
  else begin
    let last = List.length files - 1 in
    let rec replay i applied torn_any = function
      | [] ->
        let* () = seal_legacy_active t base in
        Ok { applied; from_checkpoint; torn_tail = torn_any }
      | file :: rest ->
        let tolerate_torn = i = last in
        let* n, torn =
          if Journal.is_v2_file file then replay_v2 t ~file ~tolerate_torn ~on_record
          else replay_legacy t ~file ~tolerate_torn ~on_record
        in
        let* () =
          match torn with
          | None -> Ok ()
          | Some offset -> truncate_torn_tail t ~file ~offset
        in
        replay (i + 1) (applied + n) (torn_any || torn <> None) rest
    in
    replay 0 0 false files
  end
