(* The differential oracle: one property over the serving layer's whole
   configuration product.

   The Section-6 monitor is stateful, so every serving feature — sharding,
   the label cache, group commit, segment rotation, checkpoints, the tiered
   store, explain capture, the wire, concurrent submitters, replication,
   reload — must leave the sequential [Service]'s decisions and journal
   bytes unchanged. [check] runs one history under one drawn [config] and
   compares it against one reference: a journaled sequential [Service] per
   shard, each over that shard's part of the history.

   Always checked: every step's decision, the final snapshot, [Server.recover]
   on a fresh server, and — with a follower — mirror bytes equal to the
   primary's, and its replayed state and promote at step k equal to the
   reference after k steps.
   Bytes: with one submitter and nothing compacted, each shard's record
   stream equals the reference journal; with one submitter, a [twin]
   configuration differing only in byte-invariant axes (group commit,
   explain, transport, cache, resident budget) leaves identical segment
   and checkpoint bytes.

   Resource limits ([--fuel]) stay outside: the compiled labeler spends
   less fuel than the interpreter (DESIGN §12), so a fuel-bounded server
   legitimately answers what a fuel-bounded [Service] refuses. *)

open Support
module Service = Disclosure.Service
module Monitor = Disclosure.Monitor
module Faults = Disclosure.Faults
module Source = Replicate.Source
module Follower = Replicate.Follower

type transport = In_process | Wire | Pipelined

type checkpoint =
  | Never
  | At of int  (** [Server.checkpoint] on a drained server after step k. *)
  | Every of int  (** The automatic per-shard cadence. *)

(* Positions (checkpoint, follower, reload, fault) are step counts, clamped
   to the history's length when the case runs, so a shrinking history
   never invalidates its configuration. *)
type config = {
  shards : int;
  cache : int;
  group_commit : bool;
  segment_bytes : int;
  checkpoint : checkpoint;
  resident : int option;  (** Per-shard resident budget, in principals. *)
  explain : bool;
  transport : transport;
  submitters : int;  (** Domains, each owning a disjoint set of principals. *)
  follower : int option;  (** Catch a follower up and promote it after step k. *)
  reload : int option;  (** A same-policy reload after step k, overlapping a drain. *)
  fault : (Faults.stage * Faults.fault * int) option;  (** Armed for step k only. *)
}

type case = { config : config; twin : config; history : (int * int) list }

(* --- axes ------------------------------------------------------------------ *)

let shards_values = [ 1; 2; 4 ]
let cache_values = [ 0; 2; 256 ]
let segment_values = [ 0; 64; 512 ]
let resident_values = [ None; Some 1; Some 2; Some 3 ]
let transport_values = [ In_process; Wire; Pipelined ]
let submitter_values = [ 1; 2; 3 ]
let fault_kinds = [ Faults.Exhaust_fuel; Faults.Expire_deadline; Faults.Raise "injected" ]

let transport_name = function
  | In_process -> "in-process"
  | Wire -> "wire"
  | Pipelined -> "pipelined"

let fault_kind_name = function
  | Faults.Exhaust_fuel -> "fuel"
  | Faults.Expire_deadline -> "deadline"
  | Faults.Raise _ -> "raise"

let opt_name f = function None -> "none" | Some x -> f x

(* Every axis with the name of the value [c] takes on it; [axes] lists
   every name each axis can take, for the coverage check. *)
let axis_values c =
  [
    ("shards", string_of_int c.shards);
    ("cache", string_of_int c.cache);
    ("group_commit", string_of_bool c.group_commit);
    ("segment_bytes", string_of_int c.segment_bytes);
    ( "checkpoint",
      match c.checkpoint with Never -> "never" | At _ -> "explicit" | Every _ -> "cadence" );
    ("resident", opt_name string_of_int c.resident);
    ("explain", string_of_bool c.explain);
    ("transport", transport_name c.transport);
    ("submitters", string_of_int c.submitters);
    ("follower", opt_name (fun _ -> "promote") c.follower);
    ("reload", opt_name (fun _ -> "reload") c.reload);
    ("fault_stage", opt_name (fun (s, _, _) -> Faults.stage_name s) c.fault);
    ("fault_kind", opt_name (fun (_, f, _) -> fault_kind_name f) c.fault);
  ]

let axes =
  let ints = List.map string_of_int and bools = [ "false"; "true" ] in
  [
    ("shards", ints shards_values);
    ("cache", ints cache_values);
    ("group_commit", bools);
    ("segment_bytes", ints segment_values);
    ("checkpoint", [ "never"; "explicit"; "cadence" ]);
    ("resident", List.map (opt_name string_of_int) resident_values);
    ("explain", bools);
    ("transport", List.map transport_name transport_values);
    ("submitters", ints submitter_values);
    ("follower", [ "none"; "promote" ]);
    ("reload", [ "none"; "reload" ]);
    ("fault_stage", "none" :: List.map Faults.stage_name Faults.submission_stages);
    ("fault_kind", "none" :: List.map fault_kind_name fault_kinds);
  ]

let pp_config ppf c =
  let at = opt_name (Printf.sprintf "after step %d") in
  Format.fprintf ppf
    "{shards=%d; cache=%d; group_commit=%b; segment_bytes=%d; checkpoint=%s; resident=%s; \
     explain=%b; transport=%s; submitters=%d; follower=%s; reload=%s; fault=%s}"
    c.shards c.cache c.group_commit c.segment_bytes
    (match c.checkpoint with
    | Never -> "never"
    | At k -> Printf.sprintf "after step %d" k
    | Every n -> Printf.sprintf "every %d" n)
    (opt_name string_of_int c.resident) c.explain (transport_name c.transport) c.submitters
    (at c.follower) (at c.reload)
    (opt_name
       (fun (s, f, k) ->
         Printf.sprintf "%s/%s at step %d" (Faults.stage_name s) (fault_kind_name f) k)
       c.fault)

let print_case { config; twin; history } =
  Format.asprintf "config %a@.twin %a@.history [%s]" pp_config config pp_config twin
    (String.concat "; "
       (List.map
          (fun (p, q) ->
            Printf.sprintf "%S: %s" principals.(p) (Cq.Query.to_string queries.(q)))
          history))

(* The fault hooks are global and unsynchronized, and a label-cache hit
   skips the labeling stages: a fault runs on one shard, one submitter,
   in process, uncached. *)
let constrain c =
  if c.fault = None then c
  else { c with shards = 1; submitters = 1; cache = 0; transport = In_process }

(* Whether commit batches bound the files: a group-commit batch is never
   split, so under rotation or the checkpoint cadence its boundaries decide
   where a segment ends and when a cadence checkpoint runs. *)
let batch_bounded c =
  c.segment_bytes > 0 || match c.checkpoint with Every _ -> true | _ -> false

(* The byte-invariant axes of [c] replaced by [v]'s. Where batches bound
   the files the twin keeps [c]'s group commit and transport (which shapes
   the batches); events end a batch, so it keeps them all. *)
let twin_of c v =
  let keep = batch_bounded c in
  constrain
    {
      c with
      group_commit = (if keep then c.group_commit else v.group_commit);
      transport = (if keep then c.transport else v.transport);
      explain = v.explain;
      cache = v.cache;
      resident = v.resident;
    }

(* A pipelined connection's batches follow packet timing, so there the
   segment and cadence boundaries are not reproducible run to run (the
   record stream and every state still are). *)
let reproducible_files c = not (batch_bounded c && c.group_commit && c.transport = Pipelined)

(* --- generator ------------------------------------------------------------- *)

let max_steps = 16

(* The first [covering] cases take their axis values round-robin (fault-free
   cases first, then one per fault stage), so every value of every axis is
   drawn in any run of at least [covering] cases; later cases draw freely. *)
let plain_covering = List.length resident_values
let covering = plain_covering + List.length Faults.submission_stages
let drawn = ref 0

let gen_config ?pin () =
  let open QCheck2.Gen in
  let axis values =
    match pin with
    | None -> oneofl values
    | Some i ->
      (* The round-robin value, shrinking toward the axis's first. *)
      let j = i mod List.length values in
      map (List.nth values) (make_primitive ~gen:(fun _ -> j) ~shrink:(fun j -> Seq.init j Fun.id))
  in
  let pos = int_bound max_steps in
  let* shards = axis shards_values
  and* cache = axis cache_values
  and* group_commit = axis [ false; true ]
  and* segment_bytes = axis segment_values
  and* checkpoint =
    let* kind = axis [ `Never; `At; `Every ] and* k = pos and* every = int_range 1 3 in
    pure (match kind with `Never -> Never | `At -> At k | `Every -> Every every)
  and* resident = axis resident_values
  and* explain = axis [ false; true ]
  and* transport = axis transport_values
  and* submitters = axis submitter_values
  and* follower = axis [ false; true ] >>= fun on -> if on then map Option.some pos else pure None
  and* reload = axis [ false; true ] >>= fun on -> if on then map Option.some pos else pure None
  and* fault =
    let some =
      let* stage = oneofl Faults.submission_stages and* kind = oneofl fault_kinds and* k = pos in
      pure (Some (stage, kind, k))
    in
    match pin with
    | Some i when i < plain_covering -> pure None
    | Some i ->
      let* k = pos in
      let j = i - plain_covering in
      pure
        (Some
           ( List.nth Faults.submission_stages j,
             List.nth fault_kinds (j mod List.length fault_kinds),
             k ))
    | None -> frequency [ (3, pure None); (1, some) ]
  in
  pure
    (constrain
       { shards; cache; group_commit; segment_bytes; checkpoint; resident; explain; transport;
         submitters; follower; reload; fault })

let gen_history =
  let open QCheck2.Gen in
  list_size (int_range 1 max_steps)
    (pair (int_bound (Array.length principals - 1)) (int_bound (Array.length queries - 1)))

let case_of ?pin () =
  let open QCheck2.Gen in
  let* config = gen_config ?pin () and* variant = gen_config () and* history = gen_history in
  pure { config; twin = twin_of config variant; history }

let gen_case =
  QCheck2.Gen.delay (fun () ->
      let i = !drawn in
      incr drawn;
      case_of ?pin:(if i < covering then Some i else None) ())

(* Which value of every axis the drawn cases took. *)
let seen : (string * string, unit) Hashtbl.t = Hashtbl.create 64

let missing_values () =
  List.concat_map
    (fun (axis, values) ->
      List.filter_map
        (fun v -> if Hashtbl.mem seen (axis, v) then None else Some (axis ^ "=" ^ v))
        values)
    axes

(* --- the reference ----------------------------------------------------------- *)

let failf fmt = QCheck2.Test.fail_reportf fmt

let shard_of c principal = Server.shard_index ~shards:c.shards principal

let fault_at c i =
  match c.fault with Some (stage, fault, k) when k = i -> Some (stage, fault) | _ -> None

let with_fault_opt fault f =
  match fault with Some (stage, fault) -> Faults.with_fault stage fault f | None -> f ()

type reference = {
  decisions : Monitor.decision array;
  states : (string * Monitor.state) list array;  (** Sorted, after each step. *)
  journals : string array;  (** Per-shard record stream. *)
}

(* One journaled sequential service per shard, over that shard's principals,
   fed the history in order with the fault armed for its one step. *)
let reference c history base =
  let services =
    Array.init c.shards (fun i ->
        let s = Service.create ~journal:(Server.shard_journal base i) (pipeline ()) in
        List.iter
          (fun (principal, partitions) ->
            if shard_of c principal = i then Service.register s ~principal ~partitions)
          deployment;
        s)
  in
  let snap () =
    sorted_snapshot (List.concat_map Service.snapshot (Array.to_list services))
  in
  let states = Array.make (List.length history + 1) (snap ()) in
  let decisions =
    Array.of_list
      (List.mapi
         (fun i (p, q) ->
           let principal = principals.(p) in
           let d =
             with_fault_opt (fault_at c i) (fun () ->
                 Service.submit services.(shard_of c principal) ~principal queries.(q))
           in
           states.(i + 1) <- snap ();
           d)
         history)
  in
  Array.iter Service.close services;
  { decisions; states; journals = Array.init c.shards (record_stream base) }

(* --- the run ------------------------------------------------------------------- *)

let server_config c =
  config ~domains:c.shards ~cache_capacity:c.cache
    ~checkpoint_every:(match c.checkpoint with Every n -> n | _ -> 0)
    ~segment_bytes:c.segment_bytes ~group_commit:c.group_commit
    ?resident:(Option.map (fun n -> Store.Principals n) c.resident)
    ()

let decision_of_wire = function
  | Ok d -> d
  | Error e -> failf "wire error: %s" (Net.Errors.to_string e)

let explained = function
  | d, Some _ -> d
  | _, None -> failf "an explained decision lost its provenance"

(* One submitter's steps [(index, principal, query)] (indices into the
   history and the deployment), deciding each into [out.(index)]. In process, every step is submitted before any is
   awaited (so rounds and group-commit batches span several decisions),
   except that a faulted step is submitted and awaited alone. *)
let submit_steps c server addr out steps =
  let steps = List.map (fun (i, p, q) -> (i, principals.(p), queries.(q))) steps in
  match c.transport with
  | In_process ->
    let pending = ref [] in
    let settle () =
      List.iter (fun (i, await) -> out.(i) <- await ()) (List.rev !pending);
      pending := []
    in
    List.iter
      (fun (i, principal, q) ->
        let submit () =
          if c.explain then
            let t = Server.submit_explained server ~principal q in
            fun () -> explained (Server.await_explained t)
          else
            let t = Server.submit server ~principal q in
            fun () -> Server.await t
        in
        match fault_at c i with
        | None -> pending := (i, submit ()) :: !pending
        | fault ->
          settle ();
          out.(i) <- with_fault_opt fault (fun () -> submit () ()))
      steps;
    settle ()
  | Wire ->
    Net.Client.with_connection addr (fun client ->
        List.iter
          (fun (i, principal, q) ->
            out.(i) <-
              (if c.explain then
                 match Net.Client.explain client ~principal q with
                 | Ok r -> explained r
                 | Error e -> decision_of_wire (Error e)
               else decision_of_wire (Net.Client.query client ~principal q)))
          steps)
  | Pipelined ->
    Net.Client.with_connection addr (fun client ->
        let request (_, principal, q) =
          let query = Cq.Query.to_string q in
          if c.explain then Net.Codec.Explain { principal; query; trace = None }
          else Net.Codec.Query { principal; query; trace = None }
        in
        List.iter2
          (fun (i, _, _) response ->
            out.(i) <-
              (match response with
              | Net.Codec.Decision d when not c.explain -> d
              | Net.Codec.Explained { decision; _ } -> decision
              | Net.Codec.Error e -> decision_of_wire (Error e)
              | _ -> failf "mismatched pipelined response at step %d" i))
          steps
          (Net.Client.request_pipelined ~depth:4 client (List.map request steps)))

(* Steps split across the submitter domains by principal. *)
let submit_all c server addr out steps =
  if c.submitters = 1 then submit_steps c server addr out steps
  else
    List.init c.submitters (fun k ->
        let mine = List.filter (fun (_, p, _) -> p mod c.submitters = k) steps in
        Domain.spawn (fun () -> submit_steps c server addr out mine))
    |> List.iter Domain.join

(* A same-policy reload on another domain while this one drains. A drain
   gate that was closed before the reload (some follower, or nobody, lacks
   committed records) must stay closed throughout: the reload adds no
   records and nobody pulls meanwhile. *)
let reload_overlapping_drain server source =
  let closed_before = match source with Some s -> not (Source.caught_up s) | None -> false in
  let finished = Atomic.make false in
  let reloader =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) (fun () ->
            Server.reload server policy))
  in
  Server.drain server;
  let opened = ref false in
  while not (Atomic.get finished) do
    (match source with
    | Some s when closed_before && Source.caught_up s -> opened := true
    | _ -> ());
    Domain.cpu_relax ()
  done;
  (match Domain.join reloader with Ok () -> () | Error e -> failf "reload: %s" e);
  if !opened then failf "the drain gate opened mid-reload with a follower behind"

let check_families ~what a b ~shards =
  for shard = 0 to shards - 1 do
    let fa = family_bytes a shard and fb = family_bytes b shard in
    if List.map fst fa <> List.map fst fb then
      failf "%s: shard %d files differ: [%s] vs [%s]" what shard
        (String.concat "; " (List.map fst fa)) (String.concat "; " (List.map fst fb));
    List.iter2
      (fun (name, x) (_, y) ->
        if x <> y then failf "%s: shard %d file %S differs:@.%S@.%S" what shard name x y)
      fa fb
  done

let follower_promote c server source addr ref_state ~base ~mirror =
  Server.drain server;
  let fol =
    make_follower ?resident:(server_config c).Server.resident ~journal:mirror ~shards:c.shards ()
  in
  (match c.transport with
  | In_process -> catch_up source fol ~shards:c.shards
  | Wire | Pipelined ->
    Net.Client.with_connection addr (fun client -> ignore (Follower.poll_once fol client)));
  Option.iter (failf "follower diverged: %s") (Follower.last_error fol);
  check_families ~what:"mirror vs primary" mirror base ~shards:c.shards;
  let replayed =
    List.concat_map (fun shard -> Service.snapshot (Follower.service fol ~shard))
      (List.init c.shards Fun.id)
  in
  if sorted_snapshot replayed <> ref_state then failf "follower state differs from the reference";
  match Follower.promote fol () with
  | Error e -> failf "promote: %s" e
  | Ok (promoted, _) ->
    let got = sorted_snapshot (Server.snapshot promoted) in
    Server.stop promoted;
    if got <> ref_state then failf "promoted state differs from the reference"

let is_event c k =
  (match c.checkpoint with At j -> j = k | _ -> false) || c.reload = Some k || c.follower = Some k

(* Run [history] under [c] on a server journaled at [base], with the events
   (checkpoint, reload, follower promote) at their steps; returns every
   step's decision and the drained final snapshot. *)
let run c history ~base ~(expect : reference) =
  let server = make_server ~journal:base ~config:(server_config c) () in
  Server.start server;
  let source =
    if c.follower <> None then Some (Source.create ~server ~journal:base ()) else None
  in
  let addr = Net.Addr.Unix_socket (base ^ ".sock") in
  let listener =
    if c.transport = In_process then None
    else Some (Net.Listener.create ?extend:(Option.map Source.handler source) ~server addr)
  in
  let out = Array.make (List.length history) (Monitor.Refused (Disclosure.Guard.Fault "undecided")) in
  let events k =
    (match c.checkpoint with
    | At j when j = k -> (
      Server.drain server;
      match Server.checkpoint server with Ok () -> () | Error e -> failf "checkpoint: %s" e)
    | _ -> ());
    if c.reload = Some k then reload_overlapping_drain server source;
    match source with
    | Some source when c.follower = Some k ->
      follower_promote c server source addr expect.states.(k) ~base ~mirror:(base ^ ".mirror")
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Net.Listener.stop listener;
      Server.stop server)
    (fun () ->
      events 0;
      let chunk = ref [] in
      List.iteri
        (fun i (p, q) ->
          chunk := (i, p, q) :: !chunk;
          if is_event c (i + 1) then begin
            submit_all c server addr out (List.rev !chunk);
            chunk := [];
            events (i + 1)
          end)
        history;
      submit_all c server addr out (List.rev !chunk);
      Server.drain server;
      (out, sorted_snapshot (Server.snapshot server)))

let check_against c history ~base (expect : reference) =
  let decisions, final = run c history ~base ~expect in
  Array.iteri
    (fun i d ->
      if not (Monitor.decision_equal d expect.decisions.(i)) then
        failf "step %d: server %a, reference %a" i Monitor.pp_decision d Monitor.pp_decision
          expect.decisions.(i))
    decisions;
  let n = List.length history in
  if final <> expect.states.(n) then failf "final snapshot differs from the reference";
  let fresh = make_server ~config:(config ~domains:c.shards ()) () in
  (match Server.recover fresh ~journal:base with
  | Ok _ ->
    if sorted_snapshot (Server.snapshot fresh) <> expect.states.(n) then
      failf "recovered snapshot differs from the reference"
  | Error e -> failf "recover: %s" (Service.recovery_error_to_string e));
  Server.stop fresh

let compacts c = c.checkpoint <> Never || c.reload <> None

(* Positions clamped to a history of [n] steps. *)
let clamp n c =
  let at k = min k n in
  {
    c with
    checkpoint = (match c.checkpoint with At k -> At (at k) | other -> other);
    follower = Option.map at c.follower;
    reload = Option.map at c.reload;
    fault = Option.map (fun (stage, fault, k) -> (stage, fault, min k (n - 1))) c.fault;
  }

let check { config; twin; history } =
  List.iter (fun v -> Hashtbl.replace seen v ()) (axis_values config);
  let n = List.length history in
  let c = clamp n config and twin = clamp n twin in
  with_tmp_base (fun ref_base ->
      with_tmp_base (fun base ->
          let expect = reference c history ref_base in
          check_against c history ~base expect;
          if c.submitters = 1 then begin
            if not (compacts c) then
              for i = 0 to c.shards - 1 do
                if record_stream base i <> expect.journals.(i) then
                  failf "shard %d record stream differs from the sequential journal" i
              done;
            with_tmp_base (fun twin_base ->
                check_against twin history ~base:twin_base expect;
                if reproducible_files c then
                  check_families ~what:"twin" base twin_base ~shards:c.shards)
          end));
  true

let property () =
  QCheck2.Test.make ~count:120 ~long_factor:10
    ~name:"server ≡ sequential service over the configuration product" ~print:print_case
    gen_case check

(* The same property on a slice of the product, fault-free: [pin] fixes
   axes of each drawn configuration and [pin_twin] of its twin. A suite
   runs the slice for the feature it owns; the fault stages stay with the
   oracle suite, whose process owns the global hooks. *)
let slice ?(pin_twin = Fun.id) ~pin name =
  let pinned case =
    let config = pin { case.config with fault = None } in
    { case with config; twin = pin_twin (twin_of config case.twin) }
  in
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    (QCheck2.Test.make ~count:5 ~long_factor:10 ~name ~print:print_case
       (QCheck2.Gen.map pinned (case_of ()))
       check)

(* Pins a configuration so that every case compares its files with the
   twin's, which may differ from it in group commit or transport: one
   submitter, no rotation, no checkpoint cadence. *)
let fixed_batches c =
  {
    c with
    submitters = 1;
    segment_bytes = 0;
    checkpoint = (match c.checkpoint with Every _ -> Never | other -> other);
  }
