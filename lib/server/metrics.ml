module Json = Obs.Json
module Artifact = Compile.Artifact

type stage =
  | Net
  | Wait
  | Admit
  | Canonicalize
  | Label
  | Cache
  | Decide
  | Journal
  | Checkpoint
  | Rotate
  | Fault_in

type counter =
  | Submitted
  | Answered
  | Refused
  | Overloaded
  | Cache_hit
  | Cache_miss
  | Cache_eviction
  | Checkpoints
  | Rotations
  | Recoveries
  | Recovered_records
  | Net_accepted
  | Net_rejected
  | Net_requests
  | Net_errors
  | Net_bytes_in
  | Net_bytes_out
  | Net_reads
  | Net_writes
  | Reloads
  | Rep_pulls
  | Rep_shipped_bytes
  | Rep_applied_records
  | Combine_rounds
  | Ticket_waits

type gauge =
  | Gc_minor_collections
  | Gc_major_collections
  | Gc_promoted_words
  | Journal_segment
  | Journal_offset
  | Journal_flushes
  | Replication_lag
  | Cache_entries
  | Cache_capacity
  | Compile_version
  | Compile_groups
  | Compile_fallbacks
  | Atom_hits
  | Atom_misses
  | Intern_entries
  | Intern_capacity
  | Intern_hits
  | Intern_misses
  | Intern_flushes
  | Resident_principals
  | Spilled_principals
  | Fresh_principals
  | Fault_ins
  | Spill_writes
  | Store_evictions
  | Spill_bytes

type tier =
  | Cached
  | Compiled of Artifact.tier

type size =
  | Group_batch
  | Pipeline_window

(* --- the registry -------------------------------------------------------- *)

(* How a per-shard gauge folds into its stats section. *)
type combine =
  | Sum
  | Max

(* One exported number: its name (the JSON key, and the Prometheus series
   name's stem), its help text, and — when the stats document summarizes it
   — the [section.field] it lands in. *)
type 'k decl = {
  key : 'k;
  name : string;
  help : string;
  stat : (string * string * combine) option;
}

let decl ?stat key name help = { key; name; help; stat }

let stat ?(combine = Sum) section field = (section, field, combine)

(* A constant constructor is represented by its position in its type's
   declaration, so a table that lists its kind in that order is indexed by
   the constructor itself. [table] checks the order once, at startup. *)
let slot (key : 'k) : int = Obj.magic key

let table slot rows =
  List.iteri
    (fun i d ->
      if slot d.key <> i then invalid_arg ("Metrics: " ^ d.name ^ " is declared out of order"))
    rows;
  Array.of_list rows

(* Members of a labelled histogram family take the family's one help line. *)
let member key name = decl key name ""

let stage_decls =
  table slot
    [
      member Net "net";
      member Wait "wait";
      member Admit "admit";
      member Canonicalize "canonicalize";
      member Label "label";
      member Cache "cache";
      member Decide "decide";
      member Journal "journal";
      member Checkpoint "checkpoint";
      member Rotate "rotate";
      member Fault_in "fault_in";
    ]

let counter_decls =
  table slot
    [
      decl Submitted "submitted" "Queries submitted to a shard.";
      decl Answered "answered" "Queries answered.";
      decl Refused "refused" "Queries refused, overloads included.";
      decl Overloaded "overloaded" "Queries shed because a shard mailbox was full.";
      decl Cache_hit "cache_hits" "Label-cache hits." ~stat:(stat "cache" "hits");
      decl Cache_miss "cache_misses" "Label-cache misses." ~stat:(stat "cache" "misses");
      decl Cache_eviction "cache_evictions" "Label-cache evictions."
        ~stat:(stat "cache" "evictions");
      decl Checkpoints "checkpoints" "Checkpoint attempts driven by the shards.";
      decl Rotations "rotations" "Journal-segment rotation attempts.";
      decl Recoveries "recoveries" "Per-shard journal recoveries completed.";
      decl Recovered_records "recovered_records" "Decision records re-applied by recoveries.";
      decl Net_accepted "net_accepted" "Connections accepted.";
      decl Net_rejected "net_rejected" "Connections refused at accept.";
      decl Net_requests "net_requests" "Wire requests handled.";
      decl Net_errors "net_errors" "Typed protocol errors; each closes its connection.";
      decl Net_bytes_in "net_bytes_in" "Bytes read from clients.";
      decl Net_bytes_out "net_bytes_out" "Bytes written to clients.";
      decl Net_reads "net_reads" "read(2) calls on client connections.";
      decl Net_writes "net_writes" "write(2) calls on client connections.";
      decl Reloads "reloads" "Online policy reloads completed.";
      decl Rep_pulls "rep_pulls" "Replication pull requests served.";
      decl Rep_shipped_bytes "rep_shipped_bytes" "Journal bytes shipped to followers.";
      decl Rep_applied_records "rep_applied_records" "Shipped records replayed by this follower.";
      decl Combine_rounds "combine_rounds" "Rounds callers ran on a shard they claimed.";
      decl Ticket_waits "ticket_waits" "Ticket awaits that blocked on another caller's claim.";
    ]

let gauge_decls =
  table slot
    [
      decl Gc_minor_collections "gc_minor_collections" "Minor collections (Gc.quick_stat).";
      decl Gc_major_collections "gc_major_collections" "Major collections (Gc.quick_stat).";
      decl Gc_promoted_words "gc_promoted_words" "Words promoted to the major heap.";
      decl Journal_segment "journal_segment" "Active journal segment index.";
      decl Journal_offset "journal_offset" "Committed bytes in the active journal segment.";
      decl Journal_flushes "journal_flushes" "Journal flushes issued by the shard's service.";
      decl Replication_lag "replication_lag" "Committed primary journal bytes not yet applied.";
      decl Cache_entries "cache_entries" "Labels held by the label cache."
        ~stat:(stat "cache" "entries");
      decl Cache_capacity "cache_capacity" "Label-cache capacity."
        ~stat:(stat "cache" "capacity");
      decl Compile_version "compile_version" "Version of the compiled labeling artifact."
        ~stat:(stat ~combine:Max "compile" "version");
      decl Compile_groups "compile_groups" "Compiled (relation, arity) groups."
        ~stat:(stat "compile" "groups");
      decl Compile_fallbacks "compile_fallbacks" "Escapes to the interpreted labeler."
        ~stat:(stat "compile" "fallbacks");
      decl Atom_hits "atom_hits" "Per-atom memo hits." ~stat:(stat "compile" "atom_hits");
      decl Atom_misses "atom_misses" "Per-atom memo misses."
        ~stat:(stat "compile" "atom_misses");
      decl Intern_entries "intern_entries" "Live entries in the hash-consing table."
        ~stat:(stat "compile" "intern_entries");
      decl Intern_capacity "intern_capacity" "Hash-consing table capacity."
        ~stat:(stat "compile" "intern_capacity");
      decl Intern_hits "intern_hits" "Hash-consing hits." ~stat:(stat "compile" "intern_hits");
      decl Intern_misses "intern_misses" "Hash-consing misses."
        ~stat:(stat "compile" "intern_misses");
      decl Intern_flushes "intern_flushes" "Hash-consing table flushes."
        ~stat:(stat "compile" "intern_flushes");
      decl Resident_principals "resident_principals" "Principals with resident monitors."
        ~stat:(stat "store" "resident");
      decl Spilled_principals "spilled_principals" "Principals held in the spill file."
        ~stat:(stat "store" "spilled");
      decl Fresh_principals "fresh_principals" "Non-resident principals with pristine state."
        ~stat:(stat "store" "fresh");
      decl Fault_ins "fault_ins" "Fault-ins from the spill file."
        ~stat:(stat "store" "fault_ins");
      decl Spill_writes "spill_writes" "Spill records written."
        ~stat:(stat "store" "spill_writes");
      decl Store_evictions "store_evictions" "Evictions from the resident set."
        ~stat:(stat "store" "evictions");
      decl Spill_bytes "spill_bytes" "Spill-file size in bytes."
        ~stat:(stat "store" "spill_bytes");
    ]

let tier_slot = function Cached -> 0 | Compiled a -> 1 + slot a

let tier_decls =
  table tier_slot
    (member Cached "cache"
    :: List.map (fun a -> member (Compiled a) (Artifact.tier_name a)) Artifact.tiers)

let size_decls =
  table slot
    [
      decl Group_batch "group_commit_batch_size" "Decisions covered by one group-commit fsync.";
      decl Pipeline_window "pipeline_window_depth"
        "Frames decoded per connection wakeup (pipelining depth).";
    ]

let keys decls = Array.to_list (Array.map (fun d -> d.key) decls)

let stages = keys stage_decls
let counters = keys counter_decls
let gauges = keys gauge_decls
let tiers = keys tier_decls
let sizes = keys size_decls

let stage_name s = stage_decls.(slot s).name
let counter_name c = counter_decls.(slot c).name
let gauge_name g = gauge_decls.(slot g).name
let tier_name t = tier_decls.(tier_slot t).name
let size_name s = size_decls.(slot s).name

(* --- histograms ---------------------------------------------------------- *)

type cells = {
  observations : int Atomic.t;
  sum : int Atomic.t;
  bucket_cells : int Atomic.t array;
}

let cells n =
  {
    observations = Atomic.make 0;
    sum = Atomic.make 0;
    bucket_cells = Array.init n (fun _ -> Atomic.make 0);
  }

(* Power-of-two buckets: bucket [i] counts values in [2^i, 2^(i+1)); the
   last one also takes everything above. *)
let observe c v =
  let v = max v 0 in
  let rec log2 b v = if v > 1 then log2 (b + 1) (v lsr 1) else b in
  let b = min (log2 0 v) (Array.length c.bucket_cells - 1) in
  ignore (Atomic.fetch_and_add c.observations 1);
  ignore (Atomic.fetch_and_add c.sum v);
  ignore (Atomic.fetch_and_add c.bucket_cells.(b) 1)

type histogram = {
  count : int;
  total_ns : int;
  buckets : int array;
}

let snapshot c =
  {
    count = Atomic.get c.observations;
    total_ns = Atomic.get c.sum;
    buckets = Array.map Atomic.get c.bucket_cells;
  }

let mean_ns h = if h.count = 0 then 0.0 else float_of_int h.total_ns /. float_of_int h.count

(* Upper bound of the bucket holding the q-th fraction of observations. *)
let percentile_ns h q =
  if h.count = 0 then 0
  else begin
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
    let rec go i seen =
      let seen = seen + h.buckets.(i) in
      if seen >= target || i = Array.length h.buckets - 1 then 1 lsl (i + 1)
      else go (i + 1) seen
    in
    go 0 0
  end

(* Durations are recorded in nanoseconds and exported in seconds; batching
   shapes are plain values. *)
type scale =
  | Nanoseconds
  | Values

type exposition =
  | Labelled of {
      name : string;
      label : string;
      help : string;
      counted : (string * string) option;
          (* A counter family of the members' observation counts. *)
    }
  | Per_member (* each member is its own family, [disclosure_<name>] *)

type family = {
  json : string; (* the member of [to_json] holding the family *)
  scale : scale;
  width : int; (* buckets per histogram *)
  exposition : exposition;
  members : (string * string) array; (* name and help, in slot order *)
}

let members decls = Array.map (fun d -> (d.name, d.help)) decls

(* 40 nanosecond buckets reach ~18 minutes; batch shapes stop at 2^16,
   far above the mailbox and pipelining caps. *)
let stage_family =
  {
    json = "stages";
    scale = Nanoseconds;
    width = 40;
    exposition =
      Labelled
        {
          name = "disclosure_stage_duration_seconds";
          label = "stage";
          help = "Pipeline stage latency, power-of-two buckets.";
          counted = None;
        };
    members = members stage_decls;
  }

let tier_family =
  {
    json = "tiers";
    scale = Nanoseconds;
    width = 40;
    exposition =
      Labelled
        {
          name = "disclosure_tier_duration_seconds";
          label = "tier";
          help = "End-to-end labeling+decision latency by deciding labeler tier.";
          counted =
            Some
              ( "disclosure_tier_decisions_total",
                "Decisions by deciding labeler tier (cache hit, atom memo, matcher, \
                 interpreter escape)." );
        };
    members = members tier_decls;
  }

let size_family =
  { json = "sizes"; scale = Values; width = 16; exposition = Per_member; members = members size_decls }

(* --- the metric set ------------------------------------------------------ *)

type t = {
  counter_cells : int Atomic.t array;
  stage_cells : cells array;
  tier_cells : cells array;
  size_cells : cells array;
  gauge_cells : int Atomic.t array array; (* per shard *)
}

let families =
  [
    (stage_family, fun t -> t.stage_cells);
    (tier_family, fun t -> t.tier_cells);
    (size_family, fun t -> t.size_cells);
  ]

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Metrics.create: shards must be >= 1";
  let family f = Array.map (fun _ -> cells f.width) f.members in
  {
    counter_cells = Array.map (fun _ -> Atomic.make 0) counter_decls;
    stage_cells = family stage_family;
    tier_cells = family tier_family;
    size_cells = family size_family;
    gauge_cells = Array.init shards (fun _ -> Array.map (fun _ -> Atomic.make 0) gauge_decls);
  }

let shard_count t = Array.length t.gauge_cells

let incr t c = ignore (Atomic.fetch_and_add t.counter_cells.(slot c) 1)

let add t c n = ignore (Atomic.fetch_and_add t.counter_cells.(slot c) n)

let count t c = Atomic.get t.counter_cells.(slot c)

(* Out-of-range shards are dropped, not raised on: a gauge sample must
   never be able to crash a round. *)
let set_gauge t ~shard g v =
  if shard >= 0 && shard < shard_count t then Atomic.set t.gauge_cells.(shard).(slot g) v

let gauge_value t ~shard g =
  if shard >= 0 && shard < shard_count t then Atomic.get t.gauge_cells.(shard).(slot g) else 0

let ns_of seconds = int_of_float (seconds *. 1e9)

let record t stage seconds = observe t.stage_cells.(slot stage) (ns_of seconds)

let record_tier t tier seconds = observe t.tier_cells.(tier_slot tier) (ns_of seconds)

let record_size t size v = observe t.size_cells.(slot size) v

(* Monotonic, not wall-clock: an NTP step must not poison the histograms.
   [Mclock.elapsed_s] additionally floors at 0. *)
let time t stage f =
  let t0 = Disclosure.Mclock.now_ns () in
  let finish () = record t stage (Disclosure.Mclock.elapsed_s ~since:t0) in
  Fun.protect ~finally:finish f

let histogram t stage = snapshot t.stage_cells.(slot stage)

let size_histogram t size = snapshot t.size_cells.(slot size)

(* --- exporters ----------------------------------------------------------- *)

let num i = Json.Num (float_of_int i)

let unit_suffix f = match f.scale with Nanoseconds -> "_ns" | Values -> ""

let histogram_json f h =
  let key k = k ^ unit_suffix f in
  Json.Obj
    [
      ("count", num h.count);
      (key "total", num h.total_ns);
      (key "mean", Json.Num (mean_ns h));
      (key "p50", num (percentile_ns h 0.5));
      (key "p99", num (percentile_ns h 0.99));
    ]

let to_json t =
  let shard_gauges shard =
    Json.Obj (Array.to_list (Array.map (fun d -> (d.name, num (gauge_value t ~shard d.key))) gauge_decls))
  in
  Json.Obj
    (Array.to_list (Array.map (fun d -> (d.name, num (count t d.key))) counter_decls)
    @ List.map
        (fun (f, cells) ->
          ( f.json,
            Json.Obj
              (Array.to_list
                 (Array.mapi
                    (fun i (name, _) -> (name, histogram_json f (snapshot (cells t).(i))))
                    f.members)) ))
        families
    @ [ ("shards", Json.List (List.init (shard_count t) shard_gauges)) ])

(* Every number some stats section summarizes, as (section, field, read). *)
let summaries =
  let rows decls read =
    List.filter_map
      (fun d -> Option.map (fun (section, field, combine) -> (section, field, read d combine)) d.stat)
      (Array.to_list decls)
  in
  rows counter_decls (fun d _ t -> count t d.key)
  @ rows gauge_decls (fun d combine t ->
        let values = List.init (shard_count t) (fun shard -> gauge_value t ~shard d.key) in
        match combine with
        | Sum -> List.fold_left ( + ) 0 values
        | Max -> List.fold_left max 0 values)

let section_names =
  List.fold_left
    (fun acc (section, _, _) -> if List.mem section acc then acc else acc @ [ section ])
    [] summaries

let sections t =
  List.map
    (fun section ->
      ( section,
        Json.Obj
          (List.filter_map
             (fun (s, field, read) -> if s = section then Some (field, num (read t)) else None)
             summaries) ))
    section_names

module Prom = Obs.Prometheus

let to_prometheus t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun d ->
      let name = Printf.sprintf "disclosure_%s_total" d.name in
      Prom.header b ~name ~help:d.help ~typ:"counter";
      Prom.sample b ~name (float_of_int (count t d.key)))
    counter_decls;
  List.iter
    (fun (f, cells) ->
      let cells = cells t in
      let seconds v = match f.scale with Nanoseconds -> v /. 1e9 | Values -> v in
      let histogram ?labels ~name c =
        let h = snapshot c in
        let running = ref 0 in
        (* Bucket [i] covers [2^i, 2^(i+1)): its upper bound is the
           exclusive edge, in the family's exported unit. *)
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i n ->
                 running := !running + n;
                 (seconds (Float.ldexp 1.0 (i + 1)), !running))
               h.buckets)
        in
        Prom.histogram b ?labels ~name ~buckets
          ~sum:(seconds (float_of_int h.total_ns))
          ~count:h.count
      in
      match f.exposition with
      | Labelled { name; label; help; counted } ->
        Option.iter
          (fun (cname, chelp) ->
            Prom.header b ~name:cname ~help:chelp ~typ:"counter";
            Array.iteri
              (fun i (m, _) ->
                Prom.sample b ~name:cname ~labels:[ (label, m) ]
                  (float_of_int (Atomic.get cells.(i).observations)))
              f.members)
          counted;
        Prom.header b ~name ~help ~typ:"histogram";
        Array.iteri (fun i (m, _) -> histogram ~labels:[ (label, m) ] ~name cells.(i)) f.members
      | Per_member ->
        Array.iteri
          (fun i (m, help) ->
            let name = "disclosure_" ^ m in
            Prom.header b ~name ~help ~typ:"histogram";
            histogram ~name cells.(i))
          f.members)
    families;
  Array.iter
    (fun d ->
      let name = "disclosure_shard_" ^ d.name in
      Prom.header b ~name ~help:d.help ~typ:"gauge";
      for shard = 0 to shard_count t - 1 do
        Prom.sample b ~name
          ~labels:[ ("shard", string_of_int shard) ]
          (float_of_int (gauge_value t ~shard d.key))
      done)
    gauge_decls;
  Buffer.contents b

let pp_stats ppf doc =
  let metrics = Option.value (Json.member "metrics" doc) ~default:doc in
  let int_at key obj =
    Option.map int_of_float (Option.bind (Json.member key obj) Json.to_float)
  in
  let row name v = Format.fprintf ppf "@,  %-24s %d" name v in
  Format.fprintf ppf "@[<v>counters:";
  Array.iter (fun d -> Option.iter (row d.name) (int_at d.name metrics)) counter_decls;
  List.iter
    (fun (f, _) ->
      match Json.member f.json metrics with
      | None -> ()
      | Some hists ->
        let unit, per = match f.scale with Nanoseconds -> ("(us)", 1e3) | Values -> ("", 1.) in
        Format.fprintf ppf "@,@,%-26s %10s %12s %12s %12s" f.json "count" ("mean" ^ unit)
          ("p50" ^ unit) ("p99" ^ unit);
        Array.iter
          (fun (name, _) ->
            match Json.member name hists with
            | None -> ()
            | Some h ->
              let v k =
                Option.value ~default:0.
                  (Option.bind (Json.member (k ^ unit_suffix f) h) Json.to_float)
                /. per
              in
              Format.fprintf ppf "@,  %-24s %10d %12.1f %12.1f %12.1f" name
                (Option.value ~default:0 (int_at "count" h))
                (v "mean") (v "p50") (v "p99"))
          f.members)
    families;
  List.iter
    (fun section ->
      match Json.member section doc with
      | None -> ()
      | Some obj ->
        Format.fprintf ppf "@,@,%s:" section;
        List.iter
          (fun (s, field, _) ->
            if s = section then Option.iter (row field) (int_at field obj))
          summaries)
    section_names;
  (match Option.bind (Json.member "shards" metrics) Json.to_list with
  | None | Some [] -> ()
  | Some shards ->
    Format.fprintf ppf "@,@,per-shard gauges (shard 0..%d):" (List.length shards - 1);
    Array.iter
      (fun d ->
        Format.fprintf ppf "@,  %-24s" d.name;
        List.iter
          (fun obj ->
            Format.fprintf ppf " %d" (Option.value ~default:0 (int_at d.name obj)))
          shards)
      gauge_decls);
  Format.fprintf ppf "@]"
