(* The traced run's replay: a workload's requests pushed through the
   layers' public functions in the order one shard runs them — wire decode,
   parse, the three-level label-cache lookup, compiled labeling, decision,
   journal, tiered-store eviction, checkpoints — each call wrapped in a
   benchmark-side span. (Recovery is timed by the run itself, through
   Server.recover.) Mirrors lib/server/shard.ml's cached path; the
   decisions are checked against the gated run's, so a replay that drifted
   from the shard would show as failures. *)

module Service = Disclosure.Service
module Guard = Disclosure.Guard
module Artifact = Compile.Artifact
module Label_cache = Server.Label_cache

type config = {
  population : (string * Gen.spec) array;
  wire : bool;
  journal : string option;  (** Journal base; [None] for journal-less. *)
  group_commit : bool;
  checkpoint_every : int;
  budget : int option;
  cache_capacity : int;
}

type counts = {
  mutable decisions : int;
  mutable exact : int;
  mutable normal : int;
  mutable minimized : int;
  mutable labels : int;
  tiers : int array;  (** By [Artifact.tier] in declaration order. *)
  mutable label_words : float;
  mutable journal_bytes : int;
  mutable request_bytes : int;
  mutable response_bytes : int;
  mutable resident_max : int;
}

let tiers = Artifact.[ Tier_query_memo; Tier_atom_memo; Tier_diagram; Tier_matcher; Tier_fallback ]

let tier_index t =
  let rec go i = function x :: rest -> if x = t then i else go (i + 1) rest | [] -> 0 in
  go 0 tiers

type result = {
  decisions : Disclosure.Monitor.decision array;
  measured_s : float;
      (** Wall time of the requests after the warm-up, less checkpoints and
          spill compaction (maintenance, timed apart so that its swings do
          not drown the tracing overhead). *)
  counts : counts;  (** After the warm-up only. *)
  store_delta : (int * int) option;  (** Fault-ins and evictions after the warm-up. *)
  spill_bytes : int;
  register_s : float;
  register_words : float;
  resident_peak : int;  (** Largest resident set at any decision boundary, warm-up included. *)
}

let fresh_counts () =
  {
    decisions = 0;
    exact = 0;
    normal = 0;
    minimized = 0;
    labels = 0;
    tiers = Array.make (List.length tiers) 0;
    label_words = 0.0;
    journal_bytes = 0;
    request_bytes = 0;
    response_bytes = 0;
    resident_max = 0;
  }

type stack = {
  svc : Service.t;
  store : Store.t option;
  art : Artifact.t;
  cache : (int, Disclosure.Label.t) Label_cache.t;
}

let build cfg ~observe =
  let svc = Service.create ?journal:cfg.journal ~observe (Gen.pipeline ()) in
  let store =
    Option.map
      (fun b ->
        Store.create ~budget:(Store.Principals b)
          ~spill:(Option.get cfg.journal ^ ".spill")
          svc)
      cfg.budget
  in
  let words0 = Gc.minor_words () in
  let (), register_s =
    Stats.time (fun () ->
        Array.iter
          (fun (principal, partitions) ->
            match store with
            | Some s -> Store.register s ~principal ~partitions
            | None -> Service.register svc ~principal ~partitions)
          cfg.population)
  in
  let words = Gc.minor_words () -. words0 in
  ( {
      svc;
      store;
      art = Artifact.compile (Gen.pipeline ());
      cache = Label_cache.create ~capacity:cfg.cache_capacity;
    },
    register_s,
    words )

(* The shard's three-level lookup (Shard.cached), then labeling and the
   decision. *)
let decide st sp (c : counts) ~principal q =
  let span name f = Spans.span sp name f in
  let limits = Service.limits st.svc in
  let submit label = span "core.submit" (fun () -> Service.submit_label st.svc ~principal label) in
  let find k = span "server.cache" (fun () -> Label_cache.find st.cache k) in
  let k0 = span "server.intern" (fun () -> Artifact.intern_query st.art q) in
  let key f =
    match span "cq.minimize" (fun () -> Guard.run limits (fun budget -> f ~budget q)) with
    | Ok q' ->
      let k = span "server.intern" (fun () -> Artifact.intern_query st.art q') in
      if k <> k0 then Some k else None
    | Error _ -> None
  in
  let hit label =
    span "server.cache" (fun () -> Label_cache.add st.cache k0 label);
    submit label
  in
  match find k0 with
  | Some label ->
    c.exact <- c.exact + 1;
    submit label
  | None -> (
    let k1 = key (fun ~budget q -> Cq.Minimize.normal_form ~budget q) in
    match Option.join (Option.map find k1) with
    | Some label ->
      c.normal <- c.normal + 1;
      hit label
    | None -> (
      let k2 =
        match key (fun ~budget q -> Cq.Minimize.canonicalize ~budget q) with
        | Some k when Some k <> k1 -> Some k
        | _ -> None
      in
      match Option.join (Option.map find k2) with
      | Some label ->
        c.minimized <- c.minimized + 1;
        hit label
      | None -> (
        let labeler ~budget q =
          span "compile.label" (fun () ->
              let w0 = Gc.minor_words () in
              let l = Artifact.label ~budget st.art q in
              c.label_words <- c.label_words +. (Gc.minor_words () -. w0);
              c.labels <- c.labels + 1;
              let t = tier_index (Artifact.last_tier st.art) in
              c.tiers.(t) <- c.tiers.(t) + 1;
              l)
        in
        match span "core.submit" (fun () -> Service.label_query_with st.svc ~labeler q) with
        | Error reason -> span "core.submit" (fun () -> Service.refuse st.svc ~principal reason)
        | Ok label ->
          span "server.cache" (fun () ->
              Label_cache.add st.cache k0 label;
              Option.iter (fun k -> Label_cache.add st.cache k label) k1;
              Option.iter (fun k -> Label_cache.add st.cache k label) k2);
          submit label)))

let wire_request sp (c : counts) (r : Gen.request) =
  let frame =
    Spans.span sp "net.encode" (fun () ->
        Net.Frame.encode
          (Net.Codec.encode_request
             (Net.Codec.Query
                { principal = r.Gen.principal; query = Cq.Query.to_string r.Gen.query; trace = None })))
  in
  c.request_bytes <- c.request_bytes + String.length frame;
  let principal, text =
    Spans.span sp "net.decode" (fun () ->
        match Net.Frame.decode frame with
        | Net.Frame.Frame { payload; _ } -> (
          match Net.Codec.decode_request payload with
          | Ok (Net.Codec.Query { principal; query; _ }) -> (principal, query)
          | _ -> failwith "replay: request did not decode")
        | _ -> failwith "replay: request frame did not decode")
  in
  (principal, Spans.span sp "cq.parse" (fun () -> Cq.Parser.query_exn text))

let wire_response sp (c : counts) d =
  let frame =
    Spans.span sp "net.encode" (fun () ->
        Net.Frame.encode (Net.Codec.encode_response (Net.Codec.Decision d)))
  in
  c.response_bytes <- c.response_bytes + String.length frame;
  Spans.span sp "net.decode" (fun () ->
      match Net.Frame.decode frame with
      | Net.Frame.Frame { payload; _ } -> (
        match Net.Codec.decode_response payload with
        | Ok (Net.Codec.Decision d) -> d
        | _ -> failwith "replay: response did not decode")
      | _ -> failwith "replay: response frame did not decode")

(* Replays [requests]; spans and counts start at request [warmup]. *)
let run cfg ~sp ~warmup (requests : Gen.request array) =
  let counts = ref (fresh_counts ()) in
  (* batch_end reports the covering flush as a `Journal observation
     carrying the batch's bytes, which the appends already counted. *)
  let in_batch_end = ref false in
  let observe (o : Service.observation) =
    match o.Service.stage with
    | `Decide -> Spans.completed sp "core.decide" ~seconds:o.Service.seconds
    | `Journal ->
      Spans.completed sp "core.journal" ~seconds:o.Service.seconds;
      (match List.assoc_opt "journal_bytes" o.Service.detail with
      | Some b when not !in_batch_end -> !counts.journal_bytes <- !counts.journal_bytes + int_of_string b
      | _ -> ())
    | `Fault_in -> Spans.completed sp "store.fault_in" ~seconds:o.Service.seconds
    | _ -> ()
  in
  let st, register_s, register_words = build cfg ~observe in
  let n = Array.length requests in
  let decisions = Array.make n Disclosure.Monitor.Answered in
  let decided = ref 0 in
  let store_at_warmup = ref None in
  let t_warm = ref 0L in
  let batch_end () =
    in_batch_end := true;
    let r = Spans.span sp "core.journal" (fun () -> Service.batch_end st.svc) in
    in_batch_end := false;
    match r with Ok () -> () | Error _ -> failwith "replay: group-commit batch aborted"
  in
  let maintenance_s = ref 0.0 and resident_peak = ref 0 in
  for i = 0 to n - 1 do
    if i = warmup then begin
      counts := fresh_counts ();
      Spans.set_recording sp true;
      store_at_warmup := Option.map Store.stats st.store;
      t_warm := Disclosure.Mclock.now_ns ()
    end;
    Spans.set_request sp i;
    let c = !counts in
    if cfg.group_commit && i mod 32 = 0 then Service.batch_begin st.svc;
    let r = requests.(i) in
    let d =
      if cfg.wire then begin
        let principal, q = wire_request sp c r in
        wire_response sp c (decide st sp c ~principal q)
      end
      else decide st sp c ~principal:r.Gen.principal r.Gen.query
    in
    decisions.(i) <- d;
    c.decisions <- c.decisions + 1;
    incr decided;
    if cfg.group_commit && (i mod 32 = 31 || i = n - 1) then batch_end ();
    (* Decision boundary (batch boundary under group commit): eviction,
       then the automatic checkpoint, as the shard orders them. *)
    if not (Service.batch_active st.svc) then begin
      Option.iter
        (fun s ->
          Spans.span sp "store.enforce" (fun () -> Store.enforce s);
          c.resident_max <- max c.resident_max (Store.resident s);
          resident_peak := max !resident_peak (Store.resident s))
        st.store;
      if cfg.checkpoint_every > 0 && !decided >= cfg.checkpoint_every then begin
        decided := 0;
        let (), s =
          Stats.time (fun () ->
              (match Spans.span sp "core.checkpoint" (fun () -> Service.checkpoint st.svc) with
              | Ok () -> ()
              | Error e -> failwith ("replay: checkpoint failed: " ^ e));
              Option.iter (fun s -> Spans.span sp "store.compact" (fun () -> Store.compact s)) st.store)
        in
        if i >= warmup then maintenance_s := !maintenance_s +. s
      end
    end
  done;
  let measured_s = Disclosure.Mclock.elapsed_s ~since:!t_warm -. !maintenance_s in
  Spans.set_recording sp false;
  let store_delta =
    match (st.store, !store_at_warmup) with
    | Some s, Some s0 ->
      let s1 = Store.stats s in
      Some
        ( s1.Store.stat_fault_ins - s0.Store.stat_fault_ins,
          s1.Store.stat_evictions - s0.Store.stat_evictions )
    | _ -> None
  in
  let spill_bytes = match st.store with Some s -> (Store.stats s).Store.stat_spill_bytes | None -> 0 in
  Option.iter Store.close st.store;
  Service.close st.svc;
  {
    decisions;
    measured_s;
    counts = !counts;
    store_delta;
    spill_bytes;
    register_s;
    register_words;
    resident_peak = !resident_peak;
  }
