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

let stage_index = function
  | Net -> 0
  | Wait -> 1
  | Admit -> 2
  | Canonicalize -> 3
  | Label -> 4
  | Cache -> 5
  | Decide -> 6
  | Journal -> 7
  | Checkpoint -> 8
  | Rotate -> 9
  | Fault_in -> 10

let stage_name = function
  | Net -> "net"
  | Wait -> "wait"
  | Admit -> "admit"
  | Canonicalize -> "canonicalize"
  | Label -> "label"
  | Cache -> "cache"
  | Decide -> "decide"
  | Journal -> "journal"
  | Checkpoint -> "checkpoint"
  | Rotate -> "rotate"
  | Fault_in -> "fault_in"

let stages =
  [ Net; Wait; Admit; Canonicalize; Label; Cache; Decide; Journal; Checkpoint; Rotate; Fault_in ]

let n_stages = 11

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
  | Reloads
  | Rep_pulls
  | Rep_shipped_bytes
  | Rep_applied_records
  | Combine_rounds
  | Ticket_waits

let counter_index = function
  | Submitted -> 0
  | Answered -> 1
  | Refused -> 2
  | Overloaded -> 3
  | Cache_hit -> 4
  | Cache_miss -> 5
  | Cache_eviction -> 6
  | Checkpoints -> 7
  | Rotations -> 8
  | Recoveries -> 9
  | Recovered_records -> 10
  | Net_accepted -> 11
  | Net_rejected -> 12
  | Net_requests -> 13
  | Net_errors -> 14
  | Net_bytes_in -> 15
  | Net_bytes_out -> 16
  | Reloads -> 17
  | Rep_pulls -> 18
  | Rep_shipped_bytes -> 19
  | Rep_applied_records -> 20
  | Combine_rounds -> 21
  | Ticket_waits -> 22

let counter_name = function
  | Submitted -> "submitted"
  | Answered -> "answered"
  | Refused -> "refused"
  | Overloaded -> "overloaded"
  | Cache_hit -> "cache_hits"
  | Cache_miss -> "cache_misses"
  | Cache_eviction -> "cache_evictions"
  | Checkpoints -> "checkpoints"
  | Rotations -> "rotations"
  | Recoveries -> "recoveries"
  | Recovered_records -> "recovered_records"
  | Net_accepted -> "net_accepted"
  | Net_rejected -> "net_rejected"
  | Net_requests -> "net_requests"
  | Net_errors -> "net_errors"
  | Net_bytes_in -> "net_bytes_in"
  | Net_bytes_out -> "net_bytes_out"
  | Reloads -> "reloads"
  | Rep_pulls -> "rep_pulls"
  | Rep_shipped_bytes -> "rep_shipped_bytes"
  | Rep_applied_records -> "rep_applied_records"
  | Combine_rounds -> "combine_rounds"
  | Ticket_waits -> "ticket_waits"

let counters =
  [
    Submitted;
    Answered;
    Refused;
    Overloaded;
    Cache_hit;
    Cache_miss;
    Cache_eviction;
    Checkpoints;
    Rotations;
    Recoveries;
    Recovered_records;
    Net_accepted;
    Net_rejected;
    Net_requests;
    Net_errors;
    Net_bytes_in;
    Net_bytes_out;
    Reloads;
    Rep_pulls;
    Rep_shipped_bytes;
    Rep_applied_records;
    Combine_rounds;
    Ticket_waits;
  ]

let n_counters = 23

(* Per-shard runtime gauges, sampled by each shard's rounds from
   [Gc.quick_stat]. Gauges are set, not accumulated: the newest sample
   wins, and a racy read sees some recent value per cell. *)
type gauge =
  | Gc_minor_collections
  | Gc_major_collections
  | Gc_promoted_words
  | Journal_segment
  | Journal_offset
  | Journal_flushes
  | Replication_lag
  | Compile_version
  | Compile_fallbacks
  | Intern_entries
  | Diagram_nodes
  | Resident_principals
  | Spilled_principals
  | Fault_ins
  | Spill_bytes

let gauge_index = function
  | Gc_minor_collections -> 0
  | Gc_major_collections -> 1
  | Gc_promoted_words -> 2
  | Journal_segment -> 3
  | Journal_offset -> 4
  | Journal_flushes -> 5
  | Replication_lag -> 6
  | Compile_version -> 7
  | Compile_fallbacks -> 8
  | Intern_entries -> 9
  | Diagram_nodes -> 10
  | Resident_principals -> 11
  | Spilled_principals -> 12
  | Fault_ins -> 13
  | Spill_bytes -> 14

let gauge_name = function
  | Gc_minor_collections -> "gc_minor_collections"
  | Gc_major_collections -> "gc_major_collections"
  | Gc_promoted_words -> "gc_promoted_words"
  | Journal_segment -> "journal_segment"
  | Journal_offset -> "journal_offset"
  | Journal_flushes -> "journal_flushes"
  | Replication_lag -> "replication_lag"
  | Compile_version -> "compile_version"
  | Compile_fallbacks -> "compile_fallbacks"
  | Intern_entries -> "intern_entries"
  | Diagram_nodes -> "diagram_nodes"
  | Resident_principals -> "resident_principals"
  | Spilled_principals -> "spilled_principals"
  | Fault_ins -> "fault_ins"
  | Spill_bytes -> "spill_bytes"

let gauges =
  [
    Gc_minor_collections;
    Gc_major_collections;
    Gc_promoted_words;
    Journal_segment;
    Journal_offset;
    Journal_flushes;
    Replication_lag;
    Compile_version;
    Compile_fallbacks;
    Intern_entries;
    Diagram_nodes;
    Resident_principals;
    Spilled_principals;
    Fault_ins;
    Spill_bytes;
  ]

let n_gauges = 15

(* Labeler tiers, for per-tier decision counters and latency histograms.
   Mirrors [Compile.Artifact.tier] plus the two serving-layer outcomes the
   artifact never sees: a label-cache hit (no labeling at all) and the
   interpreted pipeline (no artifact compiled). The serving layer maps
   between the two enums — [lib/server] cannot name [Compile]'s here without
   inverting the dependency. *)
type tier =
  | Tier_cache
  | Tier_query_memo
  | Tier_atom_memo
  | Tier_diagram
  | Tier_matcher
  | Tier_fallback
  | Tier_interpreter

let tier_index = function
  | Tier_cache -> 0
  | Tier_query_memo -> 1
  | Tier_atom_memo -> 2
  | Tier_diagram -> 3
  | Tier_matcher -> 4
  | Tier_fallback -> 5
  | Tier_interpreter -> 6

let tier_name = function
  | Tier_cache -> "cache"
  | Tier_query_memo -> "memo"
  | Tier_atom_memo -> "atom-memo"
  | Tier_diagram -> "diagram"
  | Tier_matcher -> "matcher"
  | Tier_fallback -> "fallback"
  | Tier_interpreter -> "interpreter"

let tiers =
  [
    Tier_cache;
    Tier_query_memo;
    Tier_atom_memo;
    Tier_diagram;
    Tier_matcher;
    Tier_fallback;
    Tier_interpreter;
  ]

let n_tiers = 7

(* Batching-shape histograms: dimensionless sizes, not durations. *)
type size =
  | Group_batch (* decisions covered by one group-commit fsync *)
  | Pipeline_window (* frames decoded per connection wakeup *)

let size_index = function Group_batch -> 0 | Pipeline_window -> 1

let size_name = function
  | Group_batch -> "group_commit_batch_size"
  | Pipeline_window -> "pipeline_window_depth"

let sizes = [ Group_batch; Pipeline_window ]

let n_sizes = 2

(* Power-of-two latency buckets: bucket [i] counts observations in
   [2^i, 2^(i+1)) nanoseconds. 40 buckets reach ~18 minutes. *)
let n_buckets = 40

(* Size buckets top out at 2^16: mailbox and pipelining caps are far below. *)
let n_size_buckets = 16

type t = {
  counter_cells : int Atomic.t array;
  bucket_cells : int Atomic.t array array; (* per stage *)
  stage_count : int Atomic.t array;
  stage_total_ns : int Atomic.t array;
  tier_bucket_cells : int Atomic.t array array; (* per tier *)
  tier_count : int Atomic.t array;
  tier_total_ns : int Atomic.t array;
  size_bucket_cells : int Atomic.t array array; (* per size kind *)
  size_count : int Atomic.t array;
  size_total : int Atomic.t array;
  gauge_cells : int Atomic.t array array; (* per shard *)
}

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Metrics.create: shards must be >= 1";
  {
    counter_cells = Array.init n_counters (fun _ -> Atomic.make 0);
    bucket_cells = Array.init n_stages (fun _ -> Array.init n_buckets (fun _ -> Atomic.make 0));
    stage_count = Array.init n_stages (fun _ -> Atomic.make 0);
    stage_total_ns = Array.init n_stages (fun _ -> Atomic.make 0);
    tier_bucket_cells =
      Array.init n_tiers (fun _ -> Array.init n_buckets (fun _ -> Atomic.make 0));
    tier_count = Array.init n_tiers (fun _ -> Atomic.make 0);
    tier_total_ns = Array.init n_tiers (fun _ -> Atomic.make 0);
    size_bucket_cells =
      Array.init n_sizes (fun _ -> Array.init n_size_buckets (fun _ -> Atomic.make 0));
    size_count = Array.init n_sizes (fun _ -> Atomic.make 0);
    size_total = Array.init n_sizes (fun _ -> Atomic.make 0);
    gauge_cells = Array.init shards (fun _ -> Array.init n_gauges (fun _ -> Atomic.make 0));
  }

let shard_count t = Array.length t.gauge_cells

(* Out-of-range shards are dropped, not raised on: a gauge sample must
   never be able to crash a round. *)
let set_gauge t ~shard g v =
  if shard >= 0 && shard < Array.length t.gauge_cells then
    Atomic.set t.gauge_cells.(shard).(gauge_index g) v

let gauge_value t ~shard g =
  if shard >= 0 && shard < Array.length t.gauge_cells then
    Atomic.get t.gauge_cells.(shard).(gauge_index g)
  else 0

let incr t c = ignore (Atomic.fetch_and_add t.counter_cells.(counter_index c) 1)

let add t c n = ignore (Atomic.fetch_and_add t.counter_cells.(counter_index c) n)

let count t c = Atomic.get t.counter_cells.(counter_index c)

let bucket_of_ns ns =
  if ns <= 0 then 0
  else begin
    let b = ref 0 in
    let n = ref ns in
    while !n > 1 do
      n := !n lsr 1;
      b := !b + 1
    done;
    min !b (n_buckets - 1)
  end

let record t stage seconds =
  let i = stage_index stage in
  let ns = int_of_float (seconds *. 1e9) in
  let ns = if ns < 0 then 0 else ns in
  ignore (Atomic.fetch_and_add t.stage_count.(i) 1);
  ignore (Atomic.fetch_and_add t.stage_total_ns.(i) ns);
  ignore (Atomic.fetch_and_add t.bucket_cells.(i).(bucket_of_ns ns) 1)

let record_tier t tier seconds =
  let i = tier_index tier in
  let ns = int_of_float (seconds *. 1e9) in
  let ns = if ns < 0 then 0 else ns in
  ignore (Atomic.fetch_and_add t.tier_count.(i) 1);
  ignore (Atomic.fetch_and_add t.tier_total_ns.(i) ns);
  ignore (Atomic.fetch_and_add t.tier_bucket_cells.(i).(bucket_of_ns ns) 1)

let size_bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 in
    let n = ref v in
    while !n > 1 do
      n := !n lsr 1;
      b := !b + 1
    done;
    min !b (n_size_buckets - 1)
  end

let record_size t size v =
  let i = size_index size in
  let v = if v < 0 then 0 else v in
  ignore (Atomic.fetch_and_add t.size_count.(i) 1);
  ignore (Atomic.fetch_and_add t.size_total.(i) v);
  ignore (Atomic.fetch_and_add t.size_bucket_cells.(i).(size_bucket_of v) 1)

(* Monotonic, not wall-clock: an NTP step must not poison the histograms.
   [Mclock.elapsed_s] additionally floors at 0, and [record] clamps again —
   a negative sample can never underflow the bucket index. *)
let time t stage f =
  let t0 = Disclosure.Mclock.now_ns () in
  let finish () = record t stage (Disclosure.Mclock.elapsed_s ~since:t0) in
  Fun.protect ~finally:finish f

type histogram = {
  count : int;
  total_ns : int;
  buckets : int array;
}

let histogram t stage =
  let i = stage_index stage in
  {
    count = Atomic.get t.stage_count.(i);
    total_ns = Atomic.get t.stage_total_ns.(i);
    buckets = Array.map Atomic.get t.bucket_cells.(i);
  }

let tier_histogram t tier =
  let i = tier_index tier in
  {
    count = Atomic.get t.tier_count.(i);
    total_ns = Atomic.get t.tier_total_ns.(i);
    buckets = Array.map Atomic.get t.tier_bucket_cells.(i);
  }

(* [total_ns] holds the dimensionless sum (decisions, frames) — the
   histogram shape is shared, the unit is not. *)
let size_histogram t size =
  let i = size_index size in
  {
    count = Atomic.get t.size_count.(i);
    total_ns = Atomic.get t.size_total.(i);
    buckets = Array.map Atomic.get t.size_bucket_cells.(i);
  }

let mean_ns h = if h.count = 0 then 0.0 else float_of_int h.total_ns /. float_of_int h.count

(* Upper bound of the bucket holding the q-th fraction of observations. *)
let percentile_ns h q =
  if h.count = 0 then 0
  else begin
    let target = int_of_float (ceil (q *. float_of_int h.count)) in
    let target = max 1 target in
    let seen = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i n ->
           seen := !seen + n;
           if !seen >= target then begin
             result := 1 lsl (i + 1);
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    !result
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>counters:@,";
  List.iter
    (fun c -> Format.fprintf ppf "  %-16s %d@," (counter_name c) (count t c))
    counters;
  Format.fprintf ppf "stage latency (count, mean, p50, p99 upper bounds):@,";
  List.iter
    (fun s ->
      let h = histogram t s in
      Format.fprintf ppf "  %-12s %9d  mean %8.1fus  p50 <= %8.1fus  p99 <= %8.1fus@,"
        (stage_name s) h.count (mean_ns h /. 1e3)
        (float_of_int (percentile_ns h 0.5) /. 1e3)
        (float_of_int (percentile_ns h 0.99) /. 1e3))
    stages;
  Format.fprintf ppf "labeler tiers (count, mean, p99 upper bound):@,";
  List.iter
    (fun tier ->
      let h = tier_histogram t tier in
      if h.count > 0 then
        Format.fprintf ppf "  %-12s %9d  mean %8.1fus  p99 <= %8.1fus@,"
          (tier_name tier) h.count (mean_ns h /. 1e3)
          (float_of_int (percentile_ns h 0.99) /. 1e3))
    tiers;
  Format.fprintf ppf "batch shapes (count, mean, p99 upper bound):@,";
  List.iter
    (fun size ->
      let h = size_histogram t size in
      if h.count > 0 then
        Format.fprintf ppf "  %-28s %9d  mean %8.1f  p99 <= %d@," (size_name size)
          h.count (mean_ns h) (percentile_ns h 0.99))
    sizes;
  Format.fprintf ppf "per-shard gc gauges:@,";
  for shard = 0 to shard_count t - 1 do
    Format.fprintf ppf "  shard %d:" shard;
    List.iter
      (fun g -> Format.fprintf ppf " %s=%d" (gauge_name g) (gauge_value t ~shard g))
      gauges;
    Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"

let to_json t =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "%S: %d" (counter_name c) (count t c)))
    counters;
  Buffer.add_string b ", \"stages\": {";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      let h = histogram t s in
      Buffer.add_string b
        (Printf.sprintf "%S: {\"count\": %d, \"total_ns\": %d, \"mean_ns\": %.1f, \"p50_ns\": %d, \"p99_ns\": %d}"
           (stage_name s) h.count h.total_ns (mean_ns h)
           (percentile_ns h 0.5) (percentile_ns h 0.99)))
    stages;
  Buffer.add_string b "}, \"tiers\": {";
  List.iteri
    (fun i tier ->
      if i > 0 then Buffer.add_string b ", ";
      let h = tier_histogram t tier in
      Buffer.add_string b
        (Printf.sprintf "%S: {\"count\": %d, \"total_ns\": %d, \"mean_ns\": %.1f, \"p99_ns\": %d}"
           (tier_name tier) h.count h.total_ns (mean_ns h) (percentile_ns h 0.99)))
    tiers;
  Buffer.add_string b "}, \"sizes\": {";
  List.iteri
    (fun i size ->
      if i > 0 then Buffer.add_string b ", ";
      let h = size_histogram t size in
      Buffer.add_string b
        (Printf.sprintf "%S: {\"count\": %d, \"total\": %d, \"mean\": %.1f, \"p99\": %d}"
           (size_name size) h.count h.total_ns (mean_ns h) (percentile_ns h 0.99)))
    sizes;
  Buffer.add_string b "}, \"shards\": [";
  for shard = 0 to shard_count t - 1 do
    if shard > 0 then Buffer.add_string b ", ";
    Buffer.add_string b "{";
    List.iteri
      (fun i g ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b
          (Printf.sprintf "%S: %d" (gauge_name g) (gauge_value t ~shard g)))
      gauges;
    Buffer.add_string b "}"
  done;
  Buffer.add_string b "]}";
  Buffer.contents b

(* --- Prometheus text exposition ----------------------------------------- *)

(* Every counter becomes [disclosure_<name>_total]; every stage histogram a
   member of the [disclosure_stage_duration_seconds] family labeled by
   stage, with cumulative counts and [le] bounds in seconds (the bucket
   edges are the power-of-two nanosecond edges, converted); every gauge a
   [disclosure_shard_<name>] member labeled by shard index. *)
let to_prometheus t =
  let b = Buffer.create 4096 in
  List.iter
    (fun c ->
      let name = Printf.sprintf "disclosure_%s_total" (counter_name c) in
      Obs.Prometheus.header b ~name
        ~help:(Printf.sprintf "Serving-layer %s counter." (counter_name c))
        ~typ:"counter";
      Obs.Prometheus.sample b ~name (float_of_int (count t c)))
    counters;
  let name = "disclosure_stage_duration_seconds" in
  Obs.Prometheus.header b ~name
    ~help:"Pipeline stage latency, power-of-two buckets." ~typ:"histogram";
  List.iter
    (fun s ->
      let h = histogram t s in
      let running = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i n ->
               running := !running + n;
               (* Bucket [i] covers [2^i, 2^(i+1)) ns; its Prometheus upper
                  bound is the exclusive edge in seconds. *)
               (Float.ldexp 1.0 (i + 1) /. 1e9, !running))
             h.buckets)
      in
      Obs.Prometheus.histogram b ~name
        ~labels:[ ("stage", stage_name s) ]
        ~buckets
        ~sum:(float_of_int h.total_ns /. 1e9)
        ~count:h.count)
    stages;
  let name = "disclosure_tier_decisions_total" in
  Obs.Prometheus.header b ~name
    ~help:"Decisions by deciding labeler tier (cache hit, memo levels, diagram, matcher, interpreter escape)."
    ~typ:"counter";
  List.iter
    (fun tier ->
      Obs.Prometheus.sample b ~name
        ~labels:[ ("tier", tier_name tier) ]
        (float_of_int (tier_histogram t tier).count))
    tiers;
  let name = "disclosure_tier_duration_seconds" in
  Obs.Prometheus.header b ~name
    ~help:"End-to-end labeling+decision latency by deciding labeler tier." ~typ:"histogram";
  List.iter
    (fun tier ->
      let h = tier_histogram t tier in
      let running = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i n ->
               running := !running + n;
               (Float.ldexp 1.0 (i + 1) /. 1e9, !running))
             h.buckets)
      in
      Obs.Prometheus.histogram b ~name
        ~labels:[ ("tier", tier_name tier) ]
        ~buckets
        ~sum:(float_of_int h.total_ns /. 1e9)
        ~count:h.count)
    tiers;
  List.iter
    (fun size ->
      let name = Printf.sprintf "disclosure_%s" (size_name size) in
      Obs.Prometheus.header b ~name
        ~help:
          (match size with
          | Group_batch -> "Decisions covered by one group-commit fsync."
          | Pipeline_window -> "Frames decoded per connection wakeup (pipelining depth).")
        ~typ:"histogram";
      let h = size_histogram t size in
      let running = ref 0 in
      let buckets =
        Array.to_list
          (Array.mapi
             (fun i n ->
               running := !running + n;
               (* Bucket [i] covers [2^i, 2^(i+1)): upper edge as a count. *)
               (Float.ldexp 1.0 (i + 1), !running))
             h.buckets)
      in
      Obs.Prometheus.histogram b ~name ~buckets
        ~sum:(float_of_int h.total_ns)
        ~count:h.count)
    sizes;
  List.iter
    (fun g ->
      let name = Printf.sprintf "disclosure_shard_%s" (gauge_name g) in
      Obs.Prometheus.header b ~name
        ~help:(Printf.sprintf "Per-shard %s, sampled by the shard." (gauge_name g))
        ~typ:"gauge";
      for shard = 0 to shard_count t - 1 do
        Obs.Prometheus.sample b ~name
          ~labels:[ ("shard", string_of_int shard) ]
          (float_of_int (gauge_value t ~shard g))
      done)
    gauges;
  Buffer.contents b
