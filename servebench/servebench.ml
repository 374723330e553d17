(* The serving benchmark: one workload per process, one shard, one
   single-threaded load generator on one connection (or one in-process
   submitter). See README.md for the workloads, the metrics and why they
   are defined the way they are.

     servebench --workload NAME --seed N --seconds S --trace 0|1 [--dir D]

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
   (a separate process: the gated numbers never share a run with spans).
   The last stdout line is one JSON object: correct, attempted, failed,
   metrics. Exit status 1 when any request failed or differed from the
   sequential oracle, or the tiered store broke its resident budget. *)

module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard
module Metrics = Server.Metrics
module Artifact = Compile.Artifact
module Label_cache = Server.Label_cache

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  wire : bool;  (** Over one Unix-socket connection, else in-process. *)
  population : (string * Gen.spec) array;
  next : unit -> Gen.request;  (** The seeded request stream. *)
  config : Server.config;
  journaled : bool;
  budget : int option;  (** Tiered store's resident budget. *)
  warmup : int;  (** Requests before timing; also the exact-count prefix. *)
  replay : int;  (** Requests the traced replay times after its warm-up. *)
  open_rate : float;  (** Offered rate of the ungated open-loop phase. *)
}

let window = 256
let depth = 32
let checkpoint_every = 32_768

let server_config ~cache ~group_commit ~checkpoint_every ~resident =
  {
    Server.default_config with
    Server.domains = 1;
    (* Room for the open-loop phase to queue behind a checkpoint without
       shedding: an overload refusal would count as a failure. *)
    mailbox_capacity = 65_536;
    cache_capacity = cache;
    checkpoint_every;
    group_commit;
    resident;
  }

let ecosystem_population (e : Gen.ecosystem) =
  Array.mapi (fun rank name -> (name, Gen.spec_of e rank)) e.Gen.names

let workload name ~seed =
  match name with
  | "ecosystem_wire" ->
    let e = Gen.ecosystem ~seed ~principals:100_000 ~skew:1.0 in
    Some
      {
        name;
        wire = true;
        population = ecosystem_population e;
        next = (fun () -> Gen.next_ecosystem e);
        config =
          server_config ~cache:4096 ~group_commit:true ~checkpoint_every:0 ~resident:None;
        journaled = true;
        budget = None;
        warmup = 196 * window;
        replay = 128 * window;
        open_rate = 5_000.0;
      }
  | "cold_label" ->
    let c = Gen.cold ~seed in
    Some
      {
        name;
        wire = false;
        population = Array.map (fun n -> (n, Gen.cold_spec)) c.Gen.cold_names;
        next = (fun () -> Gen.next_cold c);
        config =
          server_config ~cache:4096 ~group_commit:false ~checkpoint_every:0 ~resident:None;
        journaled = false;
        budget = None;
        warmup = 4 * window;
        replay = 8 * window;
        open_rate = 400.0;
      }
  | "tiered_churn" ->
    let e = Gen.ecosystem ~seed ~principals:200_000 ~skew:0.8 in
    let budget = 4_096 in
    Some
      {
        name;
        wire = false;
        population = ecosystem_population e;
        next = (fun () -> Gen.next_ecosystem e);
        config =
          server_config ~cache:4096 ~group_commit:false ~checkpoint_every
            ~resident:(Some (Store.Principals budget));
        journaled = true;
        budget = Some budget;
        warmup = 160 * window;
        replay = 150 * window;
        open_rate = 2_000.0;
      }
  | _ -> None

let info fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Files                                                               *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let regular_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_kind = Unix.S_REG)

let file_size path = (Unix.stat path).Unix.st_size

let copy_file src dst =
  let ic = open_in_bin src in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Journal segments and checkpoint of [dir]'s "journal" base (not the
   spill file, which is process-private scratch) copied into [into]. *)
let copy_journal ~dir ~into =
  mkdir_p into;
  List.iter
    (fun f ->
      if String.starts_with ~prefix:"journal" f && not (Filename.check_suffix f ".spill")
      then copy_file (Filename.concat dir f) (Filename.concat into f))
    (regular_files dir)

let disk_bytes dir = List.fold_left (fun acc f -> acc + file_size (Filename.concat dir f)) 0 (regular_files dir)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> loop ()
        | exception End_of_file -> Float.nan
      in
      loop ())

(* Cumulative (steal, total) jiffies of all CPUs, from /proc/stat: steal is
   time the hypervisor ran someone else. Printed as host context, never
   gated. *)
let cpu_steal () =
  let ic = open_in "/proc/stat" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
      | "cpu" :: fields ->
        let v = List.map int_of_string fields in
        ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
      | _ -> (0, 0))

let steal_pct ~since:(s0, t0) (s1, t1) =
  if t1 > t0 then 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0

(* A fixed ALU loop owned by the benchmark, in process CPU time: host speed
   net of steal, for telling a host slowdown apart from a program change.
   Never gated. *)
let host_ref_ms () =
  let x = ref 0 in
  let (), _, s =
    Stats.time_cpu (fun () ->
        for i = 1 to 20_000_000 do
          x := ((!x * 31) + i) land 0xFFFFFF
        done)
  in
  ignore (Sys.opaque_identity !x);
  s *. 1e3

(* ------------------------------------------------------------------ *)
(* The system under test                                               *)

type live = {
  server : Server.t;
  listener : Net.Listener.t option;
  client : Net.Client.t option;
  dir : string;
}

let journal_base dir = Filename.concat dir "journal"

(* Everything between "inputs generated" and "ready to serve": artifact
   compile inside Server.create, registration, start, and for the wire
   workload the listener and the client's connection. *)
let setup w ~dir =
  mkdir_p dir;
  let server =
    Server.create
      ?journal:(if w.journaled then Some (journal_base dir) else None)
      ~config:w.config (Gen.pipeline ())
  in
  Array.iter
    (fun (principal, partitions) -> Server.register server ~principal ~partitions)
    w.population;
  Server.start server;
  let listener, client =
    if w.wire then begin
      let addr = Net.Addr.Unix_socket (Filename.concat dir "wire.sock") in
      let listener = Net.Listener.create ~server addr in
      (Some listener, Some (Net.Client.connect addr))
    end
    else (None, None)
  in
  { server; listener; client; dir }

let teardown live =
  Option.iter Net.Client.close live.client;
  Option.iter Net.Listener.stop live.listener;
  Server.drain live.server;
  Server.stop live.server

type outcome = (Monitor.decision, string) result

let serial live (r : Gen.request) : outcome =
  match live.client with
  | Some c ->
    Net.Client.query c ~principal:r.Gen.principal r.Gen.query
    |> Result.map_error Net.Errors.to_string
  | None -> Ok (Server.submit_sync live.server ~principal:r.Gen.principal r.Gen.query)

(* One window submitted pipelined; returns the outcomes and the window's
   wall and process CPU time. *)
let submit_window live (rs : Gen.request array) : outcome array * float * float =
  match live.client with
  | Some c ->
    let pairs = Array.to_list (Array.map (fun r -> (r.Gen.principal, r.Gen.query)) rs) in
    let res, s, cpu = Stats.time_cpu (fun () -> Net.Client.query_batch ~depth c pairs) in
    (Array.of_list (List.map (Result.map_error Net.Errors.to_string) res), s, cpu)
  | None ->
    Stats.time_cpu (fun () ->
        let tickets =
          Array.map (fun r -> Server.submit live.server ~principal:r.Gen.principal r.Gen.query) rs
        in
        Array.map (fun t -> Ok (Server.await t)) tickets)

(* Every request the server saw, in submission order — one shard and one
   submitter, so this is also the order the shard decided them in. *)
type log = { mutable reqs : Gen.request list; mutable outs : outcome list; mutable n : int }

let record log r o =
  log.reqs <- r :: log.reqs;
  log.outs <- o :: log.outs;
  log.n <- log.n + 1

let run_window w live log =
  let rs = Array.init window (fun _ -> w.next ()) in
  let os, s, cpu = submit_window live rs in
  Array.iteri (fun i o -> record log rs.(i) o) os;
  (s, cpu)

(* ------------------------------------------------------------------ *)
(* The measured phase                                                  *)

(* The resident set, read at quiescent points — after every warm-up window,
   every measured block and the open-loop phase — where it is exact (a
   fault-in may hold one principal over budget until its decision
   boundary). *)
type watch = { mutable resident_max : int; mutable over_budget : bool }

let check_store w live watch () =
  match (w.budget, Server.store_stats live.server) with
  | Some budget, Some s ->
    Server.drain live.server;
    let s = Option.value (Server.store_stats live.server) ~default:s in
    watch.resident_max <- max watch.resident_max s.Store.stat_resident;
    if s.Store.stat_resident > budget then watch.over_budget <- true
  | _ -> ()

(* Blocks of 256 closed-loop requests alternate with 2 pipelined windows,
   so both sample the same stretches of host speed. Each request and each
   window is timed twice: wall time, which is what a caller waits, and
   process CPU time, which is what the program spent on it across all its
   threads. The host's CPU steal inflates the first and not the second.
   The closed-loop quantiles are also taken per block; their median across
   blocks shrugs off the blocks a slow spell of the host lands in. *)
type latency = {
  wall_us : Stats.t;  (** Every closed-loop sample's wall time. *)
  cpu_us : Stats.t;  (** The same samples' process CPU time. *)
  block_p50_cpu_us : Stats.t;  (** Per-block median of the CPU samples. *)
  block_p90_cpu_us : Stats.t;  (** Per-block 90th percentile. *)
  clean_us : Stats.t;  (** Wall samples no checkpoint ran during. *)
  clean_req : Stats.t;  (** Each clean sample's position in the stream. *)
  window_s : Stats.t;  (** Pipelined windows' wall time. *)
  window_cpu_s : Stats.t;  (** Their process CPU time. *)
}

let measure w live log ~seconds ~check_store =
  let lat =
    {
      wall_us = Stats.create ();
      cpu_us = Stats.create ();
      block_p50_cpu_us = Stats.create ();
      block_p90_cpu_us = Stats.create ();
      clean_us = Stats.create ();
      clean_req = Stats.create ();
      window_s = Stats.create ();
      window_cpu_s = Stats.create ();
    }
  in
  let metrics = Server.metrics live.server in
  let checkpoints () = Metrics.count metrics Metrics.Checkpoints in
  let deadline = Int64.add (Disclosure.Mclock.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
  while Int64.compare (Disclosure.Mclock.now_ns ()) deadline < 0 do
    let block = Stats.create () in
    for _ = 1 to 256 do
      let r = w.next () in
      let c0 = checkpoints () in
      let o, s, cpu = Stats.time_cpu (fun () -> serial live r) in
      let us = s *. 1e6 in
      Stats.add lat.wall_us us;
      Stats.add lat.cpu_us (cpu *. 1e6);
      Stats.add block (cpu *. 1e6);
      if checkpoints () = c0 then begin
        Stats.add lat.clean_us us;
        Stats.add lat.clean_req (float_of_int log.n)
      end;
      record log r o
    done;
    Stats.add lat.block_p50_cpu_us (Stats.median block);
    Stats.add lat.block_p90_cpu_us (Stats.quantile block 0.9);
    for _ = 1 to 2 do
      let s, cpu = run_window w live log in
      Stats.add lat.window_s s;
      Stats.add lat.window_cpu_s cpu
    done;
    check_store ()
  done;
  lat

(* Ungated: open loop at a fixed offered rate for one second. In-process
   only — the blocking wire client cannot send ahead of its replies, so the
   wire workload reports its pipelined figures instead. Each request is
   timed from when it was due, so a stall also charges the requests queued
   behind it. *)
let open_loop w live log =
  let lat = Stats.create () in
  let late = ref 0.0 in
  if not w.wire then begin
    let n = int_of_float w.open_rate in
    let period = 1e9 /. w.open_rate in
    let t0 = Disclosure.Mclock.now_ns () in
    let due i = Int64.add t0 (Int64.of_float (float_of_int i *. period)) in
    let pending = Queue.create () in
    let poll () =
      let rec go () =
        match Queue.peek_opt pending with
        | Some (d, r, t) -> (
          match Server.Ivar.peek t with
          | Some dec ->
            ignore (Queue.pop pending);
            let now = Disclosure.Mclock.now_ns () in
            Stats.add lat (Int64.to_float (Int64.sub now d) /. 1e3);
            record log r (Ok dec);
            go ()
          | None -> ())
        | None -> ()
      in
      go ()
    in
    for i = 0 to n - 1 do
      let d = due i in
      while Int64.compare (Disclosure.Mclock.now_ns ()) d < 0 do
        poll ()
      done;
      late := Float.max !late (Int64.to_float (Int64.sub (Disclosure.Mclock.now_ns ()) d) /. 1e3);
      let r = w.next () in
      Queue.add (d, r, Server.submit live.server ~principal:r.Gen.principal r.Gen.query) pending
    done;
    while not (Queue.is_empty pending) do
      poll ()
    done
  end;
  (lat, !late)

(* ------------------------------------------------------------------ *)
(* Oracle and recovery                                                 *)

let decision_key = function
  | Monitor.Answered -> "answered"
  | Monitor.Refused r -> "refused:" ^ Guard.refusal_to_tag r

let failed_outcome = function
  | Error _ -> true
  | Ok (Monitor.Refused (Guard.Overload | Guard.Fault _ | Guard.Resource _)) -> true
  | Ok _ -> false

(* Replays the logged stream through a sequential Disclosure.Service — the
   reference semantics — and counts requests that failed or decided
   differently. Labels come from the interpreted Pipeline.label (the
   reference labeler, not the compiled artifact), computed once per distinct
   query: labeling is a pure function of the query, so submit_label with
   the memoized label is Service.submit. *)
let oracle w ~journal (reqs : Gen.request array) (outs : outcome array) =
  let svc = Service.create ?journal (Gen.pipeline ()) in
  Array.iter
    (fun (principal, partitions) -> Service.register svc ~principal ~partitions)
    w.population;
  let labels = Hashtbl.create 1024 in
  let label q =
    let key = Cq.Query.to_string q in
    match Hashtbl.find_opt labels key with
    | Some l -> l
    | None ->
      let l = Service.label_query svc q in
      Hashtbl.add labels key l;
      l
  in
  let failed = ref 0 in
  Array.iteri
    (fun i (r : Gen.request) ->
      let principal = r.Gen.principal in
      let d =
        match label r.Gen.query with
        | Ok l -> Service.submit_label svc ~principal l
        | Error reason -> Service.refuse svc ~principal reason
      in
      (match outs.(i) with
      | Ok d' when (not (failed_outcome outs.(i))) && decision_key d = decision_key d' -> ()
      | _ -> incr failed))
    reqs;
  Service.close svc;
  !failed

(* Server.recover on a fresh, identically registered server over the
   journal copied at the end of the prefix. Recovery resets the monitors
   first, so every pass does the same work: passes repeat until
   [min_total] seconds and at least [min_passes] are in, so a short
   journal is timed as many times as a long one takes. A pass runs on this
   domain while the serving domains sit idle, so it is timed as process CPU
   time, which the host's steal does not inflate. CPU seconds per pass, and
   the records each pass applied. *)
let recovery w ~snap ~min_passes ~min_total =
  let server =
    Server.create
      ?journal:(if w.journaled then Some (journal_base snap) else None)
      ~config:w.config (Gen.pipeline ())
  in
  Array.iter
    (fun (principal, partitions) -> Server.register server ~principal ~partitions)
    w.population;
  let times = Stats.create () in
  let applied = ref [] and total = ref 0.0 and broken = ref false in
  while
    (not !broken) && (Stats.length times < min_passes || !total < min_total) && Stats.length times < 1000
  do
    let c0 = Stats.cpu_s () in
    match Server.recover server ~journal:(journal_base snap) with
    | Ok n ->
      let s = Stats.cpu_s () -. c0 in
      Stats.add times s;
      total := !total +. s;
      applied := n :: !applied
    | Error e ->
      Printf.eprintf "servebench: recovery failed: %s\n%!" (Service.recovery_error_to_string e);
      applied := -1 :: !applied;
      broken := true
  done;
  Server.stop server;
  (times, !applied)

(* Records a recovery over the prefix must re-apply: all of them, or the
   tail after the last automatic checkpoint. *)
let expected_applied w =
  if w.config.Server.checkpoint_every > 0 then w.warmup mod w.config.Server.checkpoint_every
  else w.warmup

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type counters = {
  stage : Metrics.stage -> int * int;  (** Post-warm-up (count, total ns). *)
  group_batch : int * int;  (** Post-warm-up (batches, decisions). *)
  flushes : int;
  decisions : int;  (** Post-warm-up. *)
  fallbacks : int;
}

type run = {
  setup_s : Stats.t;  (** Wall seconds per setup. *)
  setup_cpu_s : Stats.t;  (** Process CPU seconds per setup. *)
  attempted : int;  (** Requests the server saw. *)
  log_reqs : Gen.request array;  (** Every request in order, when kept. *)
  log_outs : outcome array;
  latency : latency;
  open_us : Stats.t;
  open_late_us : float;
  watch : watch;
  rss_mb : float;  (** VmHWM at the end of the warm-up. *)
  live_mb : float;  (** Live heap the server added, at the end of the warm-up. *)
  disk_per_decision : float;
  recovery_s : Stats.t;
  recovery_ok : bool;
  failed : int;
  ref_before : float;
  ref_after : float;
  measured_steal_pct : float;  (** Host CPU steal over the measured phase. *)
  counters : counters;
}

let histogram_delta m0 m1 = (m1.Metrics.count - m0.Metrics.count, m1.Metrics.total_ns - m0.Metrics.total_ns)

(* Set up, warm up, take the memory figures, the exact counts and a copy of
   the journal at the end of that fixed prefix, measure, check every
   decision against the oracle, time recovery over the prefix's journal,
   then set up again until [setups] setups and [setup_total] CPU seconds of
   them are in. The extra setups come last so that their garbage never
   counts in the peak RSS. *)
let run w ~root ~seconds ~setups ~setup_total ~recoveries ~keep_log =
  let t_start = Disclosure.Mclock.now_ns () in
  let phases = ref [] in
  let phase name = phases := (name, Disclosure.Mclock.elapsed_s ~since:t_start) :: !phases in
  let setup_s = Stats.create () and setup_cpu_s = Stats.create () in
  let timed_setup i =
    Gc.full_major ();
    let live, s, cpu =
      Stats.time_cpu (fun () -> setup w ~dir:(Filename.concat root (Printf.sprintf "setup%d" i)))
    in
    Stats.add setup_s s;
    Stats.add setup_cpu_s cpu;
    (live, cpu)
  in
  (* The heap the server's data adds is measured from here: the inputs are
     generated and the heap holds nothing else. *)
  Gc.full_major ();
  let base_words = (Gc.stat ()).Gc.live_words in
  let live, setup_cpu_total = timed_setup 0 in
  phase "setup";
  let log = { reqs = []; outs = []; n = 0 } in
  let watch = { resident_max = 0; over_budget = false } in
  let check_store = check_store w live watch in
  for _ = 1 to w.warmup / window do
    ignore (run_window w live log);
    check_store ()
  done;
  Server.drain live.server;
  phase "warmup";
  (* Memory is read here, with the cache and the resident set full: the
     request log of the time-bounded phase grows with throughput and must
     not count against the program. The live heap after a full collection
     (less the inputs, plus the fixed-length log of the warm-up) is what the
     program's data structures hold; the peak RSS adds whatever the garbage
     collector's timing across domains left standing. *)
  let rss_mb = vm_hwm_mb () in
  Gc.full_major ();
  let live_mb =
    float_of_int (((Gc.stat ()).Gc.live_words - base_words) * (Sys.word_size / 8)) /. 1048576.0
  in
  (* The exact counts and the recovery journal are taken at the end of this
     fixed prefix. cold_label's server keeps no journal; its prefix journal
     is the oracle's, byte for byte what a journaled shard would have
     written for those decisions. *)
  let snap = Filename.concat root "snap" in
  let disk =
    if w.journaled then begin
      copy_journal ~dir:live.dir ~into:snap;
      disk_bytes live.dir
    end
    else begin
      let dir = Filename.concat root "prefix-oracle" in
      mkdir_p dir;
      let reqs = Array.of_list (List.rev log.reqs) and outs = Array.of_list (List.rev log.outs) in
      ignore
        (oracle w ~journal:(Some (journal_base dir ^ ".shard0")) reqs outs);
      copy_journal ~dir ~into:snap;
      disk_bytes dir
    end
  in
  let metrics = Server.metrics live.server in
  let stages0 = List.map (fun s -> (s, Metrics.histogram metrics s)) Metrics.stages in
  let batch0 = Metrics.size_histogram metrics Metrics.Group_batch in
  let flushes () = Array.fold_left ( + ) 0 (Server.flush_counts live.server) in
  let flushes0 = flushes () and decisions0 = log.n in
  let ref_before = host_ref_ms () in
  (* Every run starts measuring from the same heap state. *)
  Gc.full_major ();
  let steal0, total0 = cpu_steal () in
  let latency = measure w live log ~seconds ~check_store in
  let steal1, total1 = cpu_steal () in
  let ref_after = host_ref_ms () in
  phase "measure";
  let open_us, open_late_us = open_loop w live log in
  check_store ();
  phase "open-loop";
  Server.drain live.server;
  let counters =
    {
      stage = (fun s -> histogram_delta (List.assoc s stages0) (Metrics.histogram metrics s));
      group_batch = histogram_delta batch0 (Metrics.size_histogram metrics Metrics.Group_batch);
      flushes = flushes () - flushes0;
      decisions = log.n - decisions0;
      fallbacks = (Server.compile_stats live.server).Artifact.fallbacks;
    }
  in
  teardown live;
  let reqs = Array.of_list (List.rev log.reqs) and outs = Array.of_list (List.rev log.outs) in
  let failed = oracle w ~journal:None reqs outs in
  phase "oracle";
  let attempted = log.n in
  log.reqs <- [];
  log.outs <- [];
  let reqs, outs = if keep_log then (reqs, outs) else ([||], [||]) in
  (* Recovery is timed with the served program torn down, so no idle
     serving domain has to join the stop-the-world collections of the
     recovering one, and without the request log, so the heap it runs
     against does not depend on how many requests the measured phase
     logged. *)
  Gc.full_major ();
  let recovery_s, applied = recovery w ~snap ~min_passes:recoveries ~min_total:2.0 in
  phase "recovery";
  let setup_cpu_total = ref setup_cpu_total in
  while
    Stats.length setup_s < setups || (!setup_cpu_total < setup_total && Stats.length setup_s < 25)
  do
    let live, cpu = timed_setup (Stats.length setup_s) in
    teardown live;
    rm_rf live.dir;
    setup_cpu_total := !setup_cpu_total +. cpu
  done;
  phase "setups";
  info "phases (cumulative s): %s"
    (String.concat ", " (List.rev_map (fun (n, s) -> Printf.sprintf "%s %.1f" n s) !phases));
  {
    setup_s;
    setup_cpu_s;
    attempted;
    log_reqs = reqs;
    log_outs = outs;
    latency;
    open_us;
    open_late_us;
    watch;
    rss_mb;
    live_mb;
    disk_per_decision = float_of_int disk /. float_of_int w.warmup;
    recovery_s;
    recovery_ok = List.for_all (fun n -> n = expected_applied w) applied;
    failed;
    ref_before;
    ref_after;
    measured_steal_pct = steal_pct ~since:(steal0, total0) (steal1, total1);
    counters;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

(* Every digit as measured; whole numbers print without a fraction. A NaN
   (a mean over no events, as on a workload that bypasses the layer) prints
   as 0. *)
let json_number x =
  if Float.is_nan x then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed (metrics : (string * float * string) list) =
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %16.6f %s\n" name v unit) metrics;
  let body =
    metrics
    |> List.map (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let host_info w r =
  info "host.ref_ms before %.3f after %.3f (fixed ALU loop, CPU time); host.steal_pct %.1f over \
        the measured phase (ungated)" r.ref_before r.ref_after r.measured_steal_pct;
  info "host.nproc %d; program domains besides the load generator: %d shard worker%s"
    (Domain.recommended_domain_count ()) w.config.Server.domains
    (if w.wire then " + listener accept and connection domains" else "")

let latency_info label s =
  let a = Stats.sorted s in
  let n = Array.length a in
  let beyond p = n - int_of_float (Float.ceil (p *. float_of_int n)) in
  info "%s: n=%d p50=%.2f p90=%.2f p99=%.2f (%d beyond) p99.9=%.2f (%d beyond) us; ungated beyond p90"
    label n (Stats.quantile_sorted a 0.5) (Stats.quantile_sorted a 0.9)
    (Stats.quantile_sorted a 0.99) (beyond 0.99) (Stats.quantile_sorted a 0.999) (beyond 0.999)

let per_decision total n = if n = 0 then 0.0 else float_of_int total /. float_of_int n

(* The CPU-time p90 and recovery, the peak RSS and what a caller waits on
   the wall clock: printed, and in the traced run's per-layer figures, but
   never gated — the host's CPU steal and memory contention, and the
   collector's timing across domains, move them more than a bound could
   allow (see README.md). *)
let ungated_figures r =
  let l = r.latency in
  [
    ("cpu.p90_us", Stats.median l.block_p90_cpu_us, "us");
    ("cpu.recovery_s", Stats.median r.recovery_s, "s");
    ("mem.peak_rss_mb", r.rss_mb, "MiB");
    ("wall.p50_us", Stats.median l.wall_us, "us");
    ("wall.p90_us", Stats.quantile l.wall_us 0.9, "us");
    ("wall.throughput_qps", float_of_int window /. Stats.median l.window_s, "1/s");
    ("wall.setup_s", Stats.median r.setup_s, "s");
  ]

let end_to_end w r =
  let l = r.latency in
  latency_info "closed-loop wall latency" l.wall_us;
  latency_info "closed-loop process CPU time" l.cpu_us;
  info "pipelined windows: n=%d of %d requests, median %.3f ms wall, %.3f ms process CPU"
    (Stats.length l.window_s) window (Stats.median l.window_s *. 1e3) (Stats.median l.window_cpu_s *. 1e3);
  info "setups: n=%d, median %.3f s wall, %.3f s process CPU; CPU s in order: %s"
    (Stats.length r.setup_s) (Stats.median r.setup_s) (Stats.median r.setup_cpu_s)
    (String.concat " "
       (List.init (Stats.length r.setup_cpu_s) (fun i -> Printf.sprintf "%.3f" r.setup_cpu_s.Stats.data.(i))));
  List.iter (fun (name, v, unit) -> info "%s %.3f %s (ungated)" name v unit) (ungated_figures r);
  if Stats.length r.open_us > 0 then begin
    latency_info (Printf.sprintf "open loop at %.0f/s, wall" w.open_rate) r.open_us;
    info "open-loop generator ran at most %.1f us late" r.open_late_us
  end;
  let c = r.counters in
  info "flushes per decision %.4f (timing-dependent under group commit; ungated)"
    (per_decision c.flushes c.decisions);
  Option.iter (fun b -> info "store.resident_max %d (budget %d)" r.watch.resident_max b) w.budget;
  [
    ("setup_s", Stats.median r.setup_cpu_s, "s");
    ("p50_cpu_us", Stats.median l.block_p50_cpu_us, "us");
    ("throughput_cpu_qps", float_of_int window /. Stats.median l.window_cpu_s, "1/s");
    ("disk_bytes_per_decision", r.disk_per_decision, "B");
    ("live_heap_mb", r.live_mb, "MiB");
  ]

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)

let replay_config w ~dir =
  {
    Replay.population = w.population;
    wire = w.wire;
    journal = (if w.journaled then Some (Filename.concat dir "journal") else None);
    group_commit = w.config.Server.group_commit;
    checkpoint_every = w.config.Server.checkpoint_every;
    budget = w.budget;
    cache_capacity = w.config.Server.cache_capacity;
  }

let per_layer w r ~root =
  (* The replay's stream is the workload's first [warmup + replay] requests:
     a fixed prefix of the seeded stream, so its counts repeat exactly. The
     run logged every request it drew, in order, so [w.next] continues the
     stream where the log ends. *)
  let n = w.warmup + w.replay in
  let logged = Array.length r.log_reqs in
  let extra = if n > logged then Array.init (n - logged) (fun _ -> w.next ()) else [||] in
  let requests = Array.append (Array.sub r.log_reqs 0 (min n logged)) extra in
  let replay ~enabled i =
    let dir = Filename.concat root (Printf.sprintf "replay%d" i) in
    mkdir_p dir;
    Gc.full_major ();
    let sp = Spans.create ~enabled in
    let res = Replay.run (replay_config w ~dir) ~sp ~warmup:w.warmup requests in
    (sp, res)
  in
  let _, plain = replay ~enabled:false 0 in
  let sp, traced = replay ~enabled:true 1 in
  (* The replay must decide exactly as the served run did. *)
  let mismatches = ref 0 in
  Array.iteri
    (fun i d ->
      if i < logged then
        match r.log_outs.(i) with
        | Ok d' when decision_key d = decision_key d' -> ()
        | _ -> incr mismatches)
    traced.Replay.decisions;
  let c = traced.Replay.counts in
  let k = c.Replay.decisions in
  let self = Spans.self_ns sp in
  let self_us name =
    match Hashtbl.find_opt self name with Some (ns, _) -> float_of_int ns /. 1e3 /. float_of_int k | None -> 0.0
  in
  (* The residue pairs each closed-loop sample that the replay also ran
     (same request, same position in the stream) with that request's
     summed layer self time. Checkpoints are maintenance, reported as
     core.checkpoint_s; the paired samples are those no checkpoint ran
     during. *)
  let per_request =
    Spans.self_by_request sp ~n:(Array.length requests) ~keep:(fun name ->
        name <> "core.checkpoint" && name <> "store.compact")
  in
  let residue = Stats.create () and paired_e2e = Stats.create () in
  for j = 0 to Stats.length r.latency.clean_us - 1 do
    let i = int_of_float r.latency.clean_req.Stats.data.(j) in
    let us = r.latency.clean_us.Stats.data.(j) in
    if i >= w.warmup && i < Array.length requests then begin
      Stats.add paired_e2e us;
      Stats.add residue (us -. (float_of_int per_request.(i) /. 1e3))
    end
  done;
  let cnt = r.counters in
  let stage_us s = let _, ns = cnt.stage s in float_of_int ns /. 1e3 /. float_of_int (max 1 cnt.decisions) in
  let share i = per_decision c.Replay.tiers.(i) c.Replay.labels in
  let checkpoint_s =
    match Hashtbl.find_opt self "core.checkpoint" with
    | Some (ns, calls) when calls > 0 -> float_of_int ns /. 1e9 /. float_of_int calls
    | _ -> 0.0
  in
  let compile_s = Stats.create () in
  for _ = 1 to 3 do
    let _, s = Stats.time (fun () -> Artifact.compile (Gen.pipeline ())) in
    Stats.add compile_s s
  done;
  let fault_ins, evictions = Option.value traced.Replay.store_delta ~default:(0, 0) in
  let overhead = (traced.Replay.measured_s -. plain.Replay.measured_s) /. plain.Replay.measured_s *. 100.0 in
  let canon_calls, canon_ns = cnt.stage Metrics.Canonicalize in
  let batches, batch_decisions = cnt.group_batch in
  let tier_names = List.map Artifact.tier_name Replay.tiers in
  let metrics =
    [
      ("net.encode_us", self_us "net.encode", "us");
      ("net.decode_us", self_us "net.decode", "us");
      ("net.request_bytes", per_decision c.Replay.request_bytes k, "B");
      ("net.response_bytes", per_decision c.Replay.response_bytes k, "B");
      ("net.stage_us", stage_us Metrics.Net, "us");
      ("cq.parse_us", self_us "cq.parse", "us");
      ("cq.minimize_us", self_us "cq.minimize", "us");
      ("server.wait_us", stage_us Metrics.Wait, "us");
      ("server.canonicalize_us", float_of_int canon_ns /. 1e3 /. float_of_int (max 1 cnt.decisions), "us");
      ("server.canonicalize_calls_per_decision", per_decision canon_calls cnt.decisions, "count");
      ("server.cache_us", stage_us Metrics.Cache, "us");
      ("server.intern_us", self_us "server.intern", "us");
      ("server.hit_ratio.exact", per_decision c.Replay.exact k, "ratio");
      ("server.hit_ratio.normal", per_decision c.Replay.normal k, "ratio");
      ("server.hit_ratio.minimized", per_decision c.Replay.minimized k, "ratio");
      ("server.group_batch", per_decision batch_decisions batches, "count");
      ("compile.label_us", self_us "compile.label", "us");
    ]
    @ List.mapi (fun i t -> ("compile.tier_share." ^ t, share i, "ratio")) tier_names
    @ [
        ("compile.words_per_label", (if c.Replay.labels = 0 then 0.0 else c.Replay.label_words /. float_of_int c.Replay.labels), "words");
        ("compile.fallbacks", float_of_int cnt.fallbacks, "count");
        ("compile.artifact_s", Stats.median compile_s, "s");
        ("core.submit_us", self_us "core.submit", "us");
        ("core.decide_us", self_us "core.decide", "us");
        ("core.journal_us", self_us "core.journal", "us");
        ("core.flushes_per_decision", per_decision cnt.flushes cnt.decisions, "count");
        ("core.journal_bytes_per_decision", per_decision c.Replay.journal_bytes k, "B");
        ("core.checkpoint_s", checkpoint_s, "s");
        ("core.register_us", traced.Replay.register_s *. 1e6 /. float_of_int (Array.length w.population), "us");
        ("core.words_per_register", traced.Replay.register_words /. float_of_int (Array.length w.population), "words");
        ("core.replay_us_per_record", Stats.median r.recovery_s *. 1e6 /. float_of_int (max 1 (expected_applied w)), "us");
        ("store.fault_in_us", self_us "store.fault_in", "us");
        ("store.enforce_us", self_us "store.enforce", "us");
        ("store.fault_ins_per_decision", per_decision fault_ins k, "count");
        ("store.evictions_per_decision", per_decision evictions k, "count");
        ("store.spill_bytes", float_of_int traced.Replay.spill_bytes, "B");
        ("store.resident_max", float_of_int c.Replay.resident_max, "count");
        ("residue_us", Stats.mean residue, "us");
        ("trace.overhead_pct", overhead, "%");
        ("host.ref_ms", (r.ref_before +. r.ref_after) /. 2.0, "ms");
        ("host.steal_pct", r.measured_steal_pct, "%");
      ]
    @ ungated_figures r
  in
  info "replay: %d requests (%d after warm-up), %d spans; traced %.3f s vs untraced %.3f s"
    (Array.length requests) k sp.Spans.len traced.Replay.measured_s plain.Replay.measured_s;
  info "residue_us: %d closed-loop samples the replay also ran, mean %.2f us, minus each one's \
        layer self time" (Stats.length residue) (Stats.mean paired_e2e);
  let over_budget =
    match w.budget with
    | Some b -> max plain.Replay.resident_peak traced.Replay.resident_peak > b
    | None -> false
  in
  (metrics, !mismatches, over_budget)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

let usage () =
  prerr_endline
    "usage: servebench --workload ecosystem_wire|cold_label|tiered_churn --seed N \
     --seconds S --trace 0|1 [--dir DIR]";
  exit 2

let () =
  let workload_name = ref "" and seed = ref None and seconds = ref 0.0 and trace = ref (-1) in
  let dir = ref (Filename.concat ".bench_build" "run") in
  let rec parse = function
    | "--workload" :: v :: rest -> workload_name := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_of_string v); parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--dir" :: v :: rest -> dir := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = match !seed with Some s -> s | None -> usage () in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let w = match workload !workload_name ~seed with Some w -> w | None -> usage () in
  let root = Filename.concat !dir (Printf.sprintf "%s-%d" w.name (Unix.getpid ())) in
  rm_rf root;
  mkdir_p root;
  let traced = !trace = 1 in
  let r =
    run w ~root ~seconds:!seconds ~setups:(if traced then 1 else 3) ~setup_total:(if traced then 0.0 else 6.0) ~recoveries:3
      ~keep_log:traced
  in
  host_info w r;
  let attempted = r.attempted in
  let metrics, replay_failed, replay_over =
    if traced then per_layer w r ~root else (end_to_end w r, 0, false)
  in
  let failed = r.failed + replay_failed in
  let over_budget = r.watch.over_budget || replay_over in
  if over_budget then info "FAIL: resident set exceeded the budget";
  if not r.recovery_ok then info "FAIL: recovery did not re-apply the expected records";
  if failed > 0 then info "FAIL: %d requests failed or differed from the oracle" failed;
  let correct = failed = 0 && (not over_budget) && r.recovery_ok in
  rm_rf root;
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
