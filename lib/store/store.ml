let src = Logs.Src.create "disclosure.store" ~doc:"Tiered principal store"

module Log = (val Logs.src_log src : Logs.LOG)

open Disclosure

type budget =
  | Principals of int
  | Bytes of int

(* Where a principal's cumulative-disclosure state lives right now, per
   service id in [where]: a spilled record's offset in the spill file
   (its length in [lens]), or one of the codes below. [fresh] is the
   zero-I/O tier: a newly registered principal, or one whose monitor was
   pristine (initial alive mask, zero counters) when evicted, needs no
   spill record — it is rebuilt from the policy alone, and [tier_reset]
   demotes every spilled principal here because the journal replay is
   about to recreate whatever the spill file held. An [untracked] id is
   not the store's: it stays resident for good. *)
let untracked = -1

let resident_code = -2

let fresh = -3

(* Per-id flag bits in [flags]. *)
let referenced = 1 (* clock bit: touched since the hand last passed *)

let in_ring = 2

type t = {
  service : Service.t;
  budget : budget;
  mutable target : int;
      (* resolved resident-principal target; 0 = a Bytes budget not yet
         resolved, which only happens while nothing is resident *)
  mutable spill : Journal.Writer.t;
  mutable reader : in_channel; (* the fault-in reader *)
  (* Per-id arrays over the service's dense principal ids, grown by
     doubling as the store tracks higher ids. *)
  mutable where : int array;
  mutable lens : int array;
  mutable policies : Policy.t array;
      (* the service's interned policy, shared by every principal with an
         equal partition list — a cold principal costs one word here, and a
         fault-in neither looks it up nor compiles it *)
  mutable flags : Bytes.t;
  ring : int Queue.t; (* clock hand over ids: pop front, second chance pushes back *)
  mutable tracked : int;
  mutable resident : int;
  mutable spilled : int;
  mutable fault_ins : int;
  mutable spill_writes : int;
  mutable evictions : int;
  mutable dead_records : int; (* spill records no id points at anymore *)
  mutable pinned : int; (* mid-fault-in id, exempt from eviction; -1 = none *)
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
let spill_check t id ~off record =
  let path = Journal.Writer.path t.spill in
  let expected = Service.name t.service id in
  match Journal.parse record with
  | Error c -> spill_refuse "%s: corrupt spill record at %d: %s" path off c.Journal.corrupt_reason
  | Ok (_, Some torn) ->
    spill_refuse "%s: torn spill record at %d: %s" path off torn.Journal.torn_reason
  | Ok ([ { Journal.fields = "p" :: principal :: state_fields; _ } ], None) -> (
    if not (String.equal principal expected) then
      spill_refuse "%s: spill record at %d names %S, expected %S" path off principal
        expected;
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
let spill_read t id ~off ~len =
  try
    spill_io t ~off ~len (fun () ->
        Faults.trip Faults.Fault_in;
        seek_in t.reader off;
        really_input_string t.reader len)
    |> spill_check t id ~off
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

(* --- per-id arrays ------------------------------------------------------ *)

let tracked t id = id < Array.length t.where && t.where.(id) <> untracked

let flag t id bit = Char.code (Bytes.get t.flags id) land bit <> 0

let set_flag t id bit on =
  let b = Char.code (Bytes.get t.flags id) in
  Bytes.set t.flags id (Char.chr (if on then b lor bit else b land lnot bit))

(* Start managing [id] with [policy] in state [code]: the arrays grow by
   doubling to cover it, the new slots untracked. *)
let manage t id policy code =
  let cap = Array.length t.where in
  if id >= cap then begin
    let cap' = max (id + 1) (max 8 (2 * cap)) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.where <- grow t.where untracked;
    t.lens <- grow t.lens 0;
    t.policies <- grow t.policies policy;
    let flags = Bytes.make cap' '\000' in
    Bytes.blit t.flags 0 flags 0 cap;
    t.flags <- flags
  end;
  t.where.(id) <- code;
  t.policies.(id) <- policy;
  t.tracked <- t.tracked + 1

(* --- clock eviction ----------------------------------------------------- *)

let ring_add t id =
  if not (flag t id in_ring) then begin
    set_flag t id in_ring true;
    Queue.push id t.ring
  end

(* Evict one principal: pristine monitors are dropped with zero I/O, dirty
   ones get a spill record committed (no fsync: durability comes from the
   journal, the spill only needs to be readable by this process) before the
   monitor leaves its slot. A failed write is rolled back and aborts the
   eviction with the principal still resident and untouched. *)
let evict t id =
  match Service.resident_at t.service id with
  | None -> ()
  | Some m ->
    if Monitor.is_pristine m then begin
      ignore (Service.detach t.service id);
      t.where.(id) <- fresh;
      t.resident <- t.resident - 1;
      t.evictions <- t.evictions + 1
    end
    else begin
      Faults.trip Faults.Spill;
      let s =
        Journal.encode
          ("p" :: Service.name t.service id :: Monitor.state_fields (Monitor.state m))
      in
      let off = Journal.Writer.committed t.spill in
      Journal.Writer.write t.spill s;
      t.spill_writes <- t.spill_writes + 1;
      t.where.(id) <- off;
      t.lens.(id) <- String.length s;
      ignore (Service.detach t.service id);
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
      let id = Queue.pop t.ring in
      if t.where.(id) <> resident_code then set_flag t id in_ring false
      else if id = t.pinned || flag t id referenced then begin
        set_flag t id referenced false;
        Queue.push id t.ring
      end
      else begin
        match evict t id with
        | () ->
          if t.where.(id) = resident_code then (* eviction declined *) Queue.push id t.ring
          else set_flag t id in_ring false
        | exception ex ->
          (* A spill failure is not a refusal — the principal just stays
             resident, over budget, and the next pass retries. *)
          Queue.push id t.ring;
          scan_bound := 0;
          Log.warn (fun f ->
              f "eviction of %s failed (staying resident): %s" (Service.name t.service id)
                (Printexc.to_string ex))
      end
    done
  end

(* --- the tier hooks ----------------------------------------------------- *)

let fault_in t id =
  let w = t.where.(id) in
  let m =
    if w = resident_code then Option.get (Service.resident_at t.service id)
    else begin
      let st = if w >= 0 then Some (spill_read t id ~off:w ~len:t.lens.(id)) else None in
      let m = Monitor.create t.policies.(id) in
      Option.iter
        (fun st ->
          try Monitor.restore m st
          with Invalid_argument msg ->
            spill_refuse "%s: spill state rejected for %s: %s" (Journal.Writer.path t.spill)
              (Service.name t.service id) msg)
        st;
      Service.adopt t.service id m;
      t.where.(id) <- resident_code;
      set_flag t id referenced true;
      t.resident <- t.resident + 1;
      if w >= 0 then begin
        t.spilled <- t.spilled - 1;
        t.dead_records <- t.dead_records + 1
      end;
      t.fault_ins <- t.fault_ins + 1;
      ring_add t id;
      m
    end
  in
  resolve_target t m ~principal:(Service.name t.service id);
  (* Make room for the newcomer right away (never evicting it), so the
     resident set is back under budget before the query proceeds. *)
  let prev = t.pinned in
  t.pinned <- id;
  Fun.protect ~finally:(fun () -> t.pinned <- prev) (fun () -> enforce t);
  m

let tier_find t id = if tracked t id then Some (fault_in t id) else None

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
  fun id ->
    if not (tracked t id) then None
    else
      let w = t.where.(id) in
      if w = resident_code then None
      else if w = fresh then Some (Service.Pristine t.policies.(id))
      else begin
        let len = t.lens.(id) in
        if w + len > String.length !image then image := spill_image t;
        let record = String.sub !image w len in
        let state = spill_check t id ~off:w record in
        Some (Service.Spilled { policy = t.policies.(id); record; state })
      end

let tier_touch t id = if id < Bytes.length t.flags then set_flag t id referenced true

let tier_reset t =
  Array.iteri
    (fun id w ->
      if w >= 0 then begin
        t.spilled <- t.spilled - 1;
        t.where.(id) <- fresh
      end)
    t.where;
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
      where = [||];
      lens = [||];
      policies = [||];
      flags = Bytes.empty;
      ring = Queue.create ();
      tracked = 0;
      resident = 0;
      spilled = 0;
      fault_ins = 0;
      spill_writes = 0;
      evictions = 0;
      dead_records = 0;
      pinned = -1;
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
  let id =
    match Service.find t.service principal with
    | Some id -> id
    | None -> raise (Service.Unknown_principal principal)
  in
  if tracked t id then invalid_arg (Printf.sprintf "Store.track: %s is already tracked" principal);
  let m =
    match Service.resident_at t.service id with
    | Some m -> m
    | None -> raise (Service.Unknown_principal principal)
  in
  manage t id (Monitor.policy m) resident_code;
  set_flag t id referenced true;
  t.resident <- t.resident + 1;
  resolve_target t m ~principal;
  ring_add t id

(* Straight into the fresh tier: no monitor, no clock entry, no eviction.
   The first query faults the principal in at zero I/O. *)
let register t ~principal ~partitions =
  if Service.mem t.service principal then raise (Service.Duplicate_principal principal);
  let policy = Service.policy t.service partitions in
  manage t (Service.enroll t.service ~principal) policy fresh

let service t = t.service

let budget t = t.budget

let resident t = t.resident

let spilled t = t.spilled

let stats t =
  {
    stat_resident = t.resident;
    stat_spilled = t.spilled;
    stat_fresh = t.tracked - t.resident - t.spilled;
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

(* Rewrite the spill file with only the records ids still point at, in id
   order. Offsets move, so every surviving id is repointed; a failure leaves
   the old file (and old offsets) fully intact. Called by the shard after a
   successful checkpoint; cheap no-op until enough records have died. *)
let compact ?(force = false) t =
  if force || (t.dead_records > 64 && t.dead_records > t.spilled) then begin
    match
      Journal.Writer.replace t.spill (fun oc ->
          output_string oc spill_header;
          let pos = ref (String.length spill_header) and moves = ref [] in
          Array.iteri
            (fun id off ->
              if off >= 0 then begin
                seek_in t.reader off;
                output_string oc (really_input_string t.reader t.lens.(id));
                moves := (id, !pos) :: !moves;
                pos := !pos + t.lens.(id)
              end)
            t.where;
          !moves)
    with
    | moves ->
      spill_refresh_reader t;
      List.iter (fun (id, off) -> t.where.(id) <- off) moves;
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
