let src = Logs.Src.create "disclosure.store" ~doc:"Tiered principal store"

module Log = (val Logs.src_log src : Logs.LOG)

open Disclosure

type budget =
  | Principals of int
  | Bytes of int

(* Where a principal's cumulative-disclosure state lives right now.
   [Fresh] is the zero-I/O tier: a newly registered principal, or one whose
   monitor was pristine (initial alive mask, zero counters) when evicted,
   needs no spill record — it is rebuilt from the policy alone, and
   [tier_reset] demotes every non-resident principal here because the
   journal replay is about to recreate whatever the spill file held. *)
type status =
  | Resident
  | Fresh
  | Spilled of { off : int; len : int }

type entry = {
  principal : string;
  policy : Policy.t;
      (* the service's interned policy, shared by every principal with an
         equal partition list — a cold principal costs one word here, and a
         fault-in neither looks it up nor compiles it *)
  mutable status : status;
  mutable referenced : bool; (* clock bit: touched since the hand last passed *)
  mutable in_ring : bool;
}

type t = {
  service : Service.t;
  budget : budget;
  mutable target : int;
      (* resolved resident-principal target; 0 = a Bytes budget not yet
         resolved, which only happens while nothing is resident *)
  mutable spill : Journal.Writer.t;
  mutable reader : in_channel; (* the fault-in reader *)
  index : (string, entry) Hashtbl.t;
  ring : entry Queue.t; (* clock hand: pop front, second chance pushes back *)
  mutable resident : int;
  mutable spilled : int;
  mutable fault_ins : int;
  mutable spill_writes : int;
  mutable evictions : int;
  mutable dead_records : int; (* spill records no entry points at anymore *)
  mutable pinned : string option; (* mid-fault-in principal, exempt from eviction *)
  mutable closed : bool;
}

type stats = {
  stat_resident : int;
  stat_spilled : int;
  stat_fresh : int;
  stat_fault_ins : int;
  stat_spill_writes : int;
  stat_evictions : int;
  stat_spill_bytes : int;
}

let spill_header = Journal.encode [ "spill"; "1" ]

let spill_refuse fmt =
  Printf.ksprintf
    (fun detail -> raise (Guard.Refuse (Guard.Resource (Guard.Spill detail))))
    fmt

(* --- spill file --------------------------------------------------------- *)

(* A spill file holding a bare header. Used at creation and by
   [tier_reset]: spilled state never survives a recovery — the journal
   replay is the authority and rebuilds it through the replay's own
   evictions. *)
let spill_open path =
  let w = Journal.Writer.create path in
  Journal.Writer.truncate w 0;
  Journal.Writer.write w spill_header;
  w

(* A failed read may leave the buffered reader holding the very bytes that
   failed validation; [seek_in] back to the same offset would serve them
   from the buffer even after the disk heals or an operator repairs the
   file. Reopening the reader makes every retry observe the current bytes.
   If the reopen itself fails the channel stays closed and the next read
   refuses again — still fail-closed, and the reopen is retried then. *)
let spill_refresh_reader t =
  close_in_noerr t.reader;
  try t.reader <- open_in_bin (Journal.Writer.path t.spill) with Sys_error _ -> ()

(* Verify one principal's spill record — frame, CRC, record shape, and the
   principal name before the state is even parsed — and return its state.
   Any failure becomes a [Resource (Spill _)] refusal: the principal's
   history exists but cannot be trusted, and treating it as fresh would
   forget disclosures. *)
let spill_check t e ~off record =
  let path = Journal.Writer.path t.spill in
  match Journal.parse record with
  | Error c -> spill_refuse "%s: corrupt spill record at %d: %s" path off c.Journal.corrupt_reason
  | Ok (_, Some torn) ->
    spill_refuse "%s: torn spill record at %d: %s" path off torn.Journal.torn_reason
  | Ok ([ { Journal.fields = "p" :: principal :: state_fields; _ } ], None) -> (
    if not (String.equal principal e.principal) then
      spill_refuse "%s: spill record at %d names %S, expected %S" path off principal
        e.principal;
    match Monitor.state_of_fields state_fields with
    | Some st -> st
    | None -> spill_refuse "%s: malformed spill state at %d" path off)
  | Ok _ -> spill_refuse "%s: unexpected spill record shape at %d" path off

(* An I/O failure reading the spill file — injected fault included — is a
   refusal too. *)
let spill_io t ~off ~len f =
  try f () with
  | (Out_of_memory | Stack_overflow | Guard.Refuse _) as ex -> raise ex
  | ex ->
    spill_refuse "%s: read at %d+%d: %s" (Journal.Writer.path t.spill) off len
      (Printexc.to_string ex)

(* Fault-in: read one committed record back at its offset and verify it. *)
let spill_read t e ~off ~len =
  try
    spill_io t ~off ~len (fun () ->
        Faults.trip Faults.Fault_in;
        seek_in t.reader off;
        really_input_string t.reader len)
    |> spill_check t e ~off
  with Guard.Refuse _ as ex ->
    spill_refresh_reader t;
    raise ex

(* The committed spill file in one sequential read, through a descriptor of
   its own: the fault-in reader's buffer may hold bytes the disk no longer
   has. *)
let spill_image t =
  let len = Journal.Writer.committed t.spill in
  spill_io t ~off:0 ~len (fun () ->
      In_channel.with_open_bin (Journal.Writer.path t.spill) (fun ic ->
          really_input_string ic len))

(* --- clock eviction ----------------------------------------------------- *)

let ring_add t e =
  if not e.in_ring then begin
    e.in_ring <- true;
    Queue.push e t.ring
  end

(* Evict one entry: pristine monitors are dropped with zero I/O, dirty ones
   get a spill record committed (no fsync: durability comes from the
   journal, the spill only needs to be readable by this process) before the
   monitor leaves the resident table. A failed write is rolled back and
   aborts the eviction with the principal still resident and untouched. *)
let evict t e =
  match Service.resident_monitor t.service e.principal with
  | None -> ()
  | Some m ->
    if Monitor.is_pristine m then begin
      ignore (Service.detach t.service ~principal:e.principal);
      e.status <- Fresh;
      t.resident <- t.resident - 1;
      t.evictions <- t.evictions + 1
    end
    else begin
      Faults.trip Faults.Spill;
      let s = Journal.encode ("p" :: e.principal :: Monitor.state_fields (Monitor.state m)) in
      let off = Journal.Writer.committed t.spill in
      Journal.Writer.write t.spill s;
      t.spill_writes <- t.spill_writes + 1;
      e.status <- Spilled { off; len = String.length s };
      ignore (Service.detach t.service ~principal:e.principal);
      t.spilled <- t.spilled + 1;
      t.resident <- t.resident - 1;
      t.evictions <- t.evictions + 1
    end

(* A resident principal's approximate heap cost: its monitor's reachable
   words less the policy's — the policy is shared by every principal with
   the same partition list, so charging it per principal would shrink the
   resident target far below what the budget allows — plus its name and
   index overhead. *)
let resident_bytes m ~principal =
  let own = Obj.reachable_words (Obj.repr m) - Obj.reachable_words (Obj.repr (Monitor.policy m)) in
  (own * (Sys.word_size / 8)) + String.length principal + 64

(* Resolve a byte budget to a principal count from the first monitor to
   become resident — an estimate, re-derived never, so the target is stable
   across a run. *)
let resolve_target t m ~principal =
  match t.budget with
  | Bytes bytes when t.target = 0 ->
    let per = resident_bytes m ~principal in
    t.target <- max 1 (bytes / per);
    Log.info (fun f ->
        f "resident budget %d bytes ~ %d principal(s) at ~%d bytes each" bytes t.target per)
  | Bytes _ | Principals _ -> ()

(* Drive the clock hand until the resident set fits the budget. Never runs
   inside an open group-commit batch (an aborting batch restores pre-batch
   state through the resident table) and never evicts the pinned (mid-
   fault-in) principal. The scan is bounded: every entry gets at most one
   second chance per call, so a pass terminates even when everything was
   recently touched. *)
let enforce t =
  if t.target > 0 && (not t.closed) && not (Service.batch_active t.service) then begin
    let target = t.target in
    let scan_bound = ref (2 * Queue.length t.ring) in
    while t.resident > target && !scan_bound > 0 && not (Queue.is_empty t.ring) do
      decr scan_bound;
      let e = Queue.pop t.ring in
      if e.status <> Resident then e.in_ring <- false
      else if Some e.principal = t.pinned || e.referenced then begin
        e.referenced <- false;
        Queue.push e t.ring
      end
      else begin
        match evict t e with
        | () ->
          if e.status = Resident then (* eviction declined *) Queue.push e t.ring
          else e.in_ring <- false
        | exception ex ->
          (* A spill failure is not a refusal — the principal just stays
             resident, over budget, and the next pass retries. *)
          Queue.push e t.ring;
          scan_bound := 0;
          Log.warn (fun f ->
              f "eviction of %s failed (staying resident): %s" e.principal
                (Printexc.to_string ex))
      end
    done
  end

(* --- the tier hooks ----------------------------------------------------- *)

let fault_in t e =
  let m =
    match e.status with
    | Resident -> (
      match Service.resident_monitor t.service e.principal with
      | Some m -> m
      | None -> assert false)
    | Fresh ->
      let m = Monitor.create e.policy in
      Service.adopt t.service ~principal:e.principal m;
      e.status <- Resident;
      e.referenced <- true;
      t.resident <- t.resident + 1;
      t.fault_ins <- t.fault_ins + 1;
      ring_add t e;
      m
    | Spilled { off; len } ->
      let st = spill_read t e ~off ~len in
      let m = Monitor.create e.policy in
      (try Monitor.restore m st
       with Invalid_argument msg ->
         spill_refuse "%s: spill state rejected for %s: %s" (Journal.Writer.path t.spill)
           e.principal msg);
      Service.adopt t.service ~principal:e.principal m;
      e.status <- Resident;
      e.referenced <- true;
      t.resident <- t.resident + 1;
      t.spilled <- t.spilled - 1;
      t.dead_records <- t.dead_records + 1;
      t.fault_ins <- t.fault_ins + 1;
      ring_add t e;
      m
  in
  resolve_target t m ~principal:e.principal;
  (* Make room for the newcomer right away (never evicting it), so the
     resident set is back under budget before the query proceeds. *)
  let prev = t.pinned in
  t.pinned <- Some e.principal;
  Fun.protect ~finally:(fun () -> t.pinned <- prev) (fun () -> enforce t);
  m

let tier_find t principal =
  match Hashtbl.find_opt t.index principal with
  | None -> None
  | Some e -> Some (fault_in t e)

(* The cold view behind checkpoints and snapshots:
   state without residency side effects, so their bytes match
   always-resident mode without churning the clock or the resident set. A
   spilled record already is the checkpoint's record, so the view hands it
   over verbatim once its CRC, name and state check out. The spill file is
   read once, sequentially, on the first spilled lookup — and again only if
   an eviction since then appended past the copy. No fault injection here —
   [Faults.Fault_in] models the fault-in read; a genuinely corrupt record
   still refuses. *)
let tier_cold t () =
  let image = ref "" in
  fun principal ->
    match Hashtbl.find_opt t.index principal with
    | None -> None
    | Some e -> (
      match e.status with
      | Resident -> None
      | Fresh -> Some (Service.Pristine (Policy.num_partitions e.policy))
      | Spilled { off; len } ->
        if off + len > String.length !image then image := spill_image t;
        let record = String.sub !image off len in
        let state = spill_check t e ~off record in
        Some (Service.Spilled { record; state }))

let tier_touch t principal =
  match Hashtbl.find_opt t.index principal with
  | None -> ()
  | Some e -> e.referenced <- true

let tier_reset t =
  Hashtbl.iter
    (fun _ e ->
      match e.status with
      | Resident -> ()
      | Fresh -> ()
      | Spilled _ ->
        t.spilled <- t.spilled - 1;
        e.status <- Fresh)
    t.index;
  let path = Journal.Writer.path t.spill in
  Journal.Writer.close t.spill;
  t.spill <- spill_open path;
  spill_refresh_reader t;
  t.dead_records <- 0

(* --- public API --------------------------------------------------------- *)

let create ~budget ~spill service =
  (match budget with
  | Principals n when n < 1 -> invalid_arg "Store.create: budget must be >= 1 principal"
  | Bytes n when n < 1 -> invalid_arg "Store.create: budget must be >= 1 byte"
  | _ -> ());
  let writer = spill_open spill in
  let t =
    {
      service;
      budget;
      target = (match budget with Principals n -> max 1 n | Bytes _ -> 0);
      spill = writer;
      reader = open_in_bin spill;
      index = Hashtbl.create 1024;
      ring = Queue.create ();
      resident = 0;
      spilled = 0;
      fault_ins = 0;
      spill_writes = 0;
      evictions = 0;
      dead_records = 0;
      pinned = None;
      closed = false;
    }
  in
  Service.set_tier service
    {
      Service.tier_find = (fun p -> tier_find t p);
      tier_cold = tier_cold t;
      tier_touch = (fun p -> tier_touch t p);
      tier_reset = (fun () -> tier_reset t);
    };
  t

let track t ~principal =
  if Hashtbl.mem t.index principal then
    invalid_arg (Printf.sprintf "Store.track: %s is already tracked" principal);
  let m =
    match Service.resident_monitor t.service principal with
    | Some m -> m
    | None -> raise (Service.Unknown_principal principal)
  in
  let e =
    { principal; policy = Monitor.policy m; status = Resident; referenced = true; in_ring = false }
  in
  Hashtbl.add t.index principal e;
  t.resident <- t.resident + 1;
  resolve_target t m ~principal;
  ring_add t e

(* Straight into the fresh tier: no monitor, no clock entry, no eviction.
   The first query faults the principal in at zero I/O. *)
let register t ~principal ~partitions =
  if Hashtbl.mem t.index principal then raise (Service.Duplicate_principal principal);
  let policy = Service.policy t.service partitions in
  Service.enroll t.service ~principal;
  Hashtbl.add t.index principal
    { principal; policy; status = Fresh; referenced = false; in_ring = false }

let service t = t.service

let budget t = t.budget

let resident t = t.resident

let spilled t = t.spilled

let stats t =
  {
    stat_resident = t.resident;
    stat_spilled = t.spilled;
    stat_fresh = Hashtbl.length t.index - t.resident - t.spilled;
    stat_fault_ins = t.fault_ins;
    stat_spill_writes = t.spill_writes;
    stat_evictions = t.evictions;
    stat_spill_bytes = Journal.Writer.committed t.spill;
  }

let sum =
  List.fold_left
    (fun a s ->
      {
        stat_resident = a.stat_resident + s.stat_resident;
        stat_spilled = a.stat_spilled + s.stat_spilled;
        stat_fresh = a.stat_fresh + s.stat_fresh;
        stat_fault_ins = a.stat_fault_ins + s.stat_fault_ins;
        stat_spill_writes = a.stat_spill_writes + s.stat_spill_writes;
        stat_evictions = a.stat_evictions + s.stat_evictions;
        stat_spill_bytes = a.stat_spill_bytes + s.stat_spill_bytes;
      })
    {
      stat_resident = 0;
      stat_spilled = 0;
      stat_fresh = 0;
      stat_fault_ins = 0;
      stat_spill_writes = 0;
      stat_evictions = 0;
      stat_spill_bytes = 0;
    }

(* Rewrite the spill file with only the records entries still point at.
   Offsets move, so every surviving entry is repointed; a failure leaves the
   old file (and old offsets) fully intact. Called by the shard after a
   successful checkpoint; cheap no-op until enough records have died. *)
let compact ?(force = false) t =
  if force || (t.dead_records > 64 && t.dead_records > t.spilled) then begin
    match
      Journal.Writer.replace t.spill (fun oc ->
          output_string oc spill_header;
          let pos = ref (String.length spill_header) in
          Hashtbl.fold
            (fun _ e acc ->
              match e.status with
              | Spilled { off; len } ->
                seek_in t.reader off;
                output_string oc (really_input_string t.reader len);
                let noff = !pos in
                pos := !pos + len;
                (e, noff, len) :: acc
              | Resident | Fresh -> acc)
            t.index [])
    with
    | moves ->
      spill_refresh_reader t;
      List.iter (fun (e, off, len) -> e.status <- Spilled { off; len }) moves;
      t.dead_records <- 0
    | exception ex ->
      Log.warn (fun f -> f "spill compaction failed (keeping old file): %s" (Printexc.to_string ex))
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Service.clear_tier t.service;
    Journal.Writer.close t.spill;
    close_in_noerr t.reader
  end
