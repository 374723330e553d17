(* The deployment and helpers shared by the test suites: one set of views,
   principals and queries, so every suite (and the differential oracle,
   [Oracle]) talks about the same ecosystem. *)

module Sview = Disclosure.Sview
module Policyfile = Disclosure.Policyfile

let pq = Cq.Parser.query_exn

let v1 = Sview.of_string "V1(x, y) :- Meetings(x, y)"
let v2 = Sview.of_string "V2(x) :- Meetings(x, y)"
let v3 = Sview.of_string "V3(x, y, z) :- Contacts(x, y, z)"

let views = [ v1; v2; v3 ]

let pipeline () = Disclosure.Pipeline.create views

(* One principal name exercises the journal's escape path. *)
let hostile = "tab\tapp"

let policy : Policyfile.t =
  {
    Policyfile.views;
    principals =
      [
        ("calendar-app", [ ("default", [ "V2" ]) ]);
        ("crm-app", [ ("meetings", [ "V1"; "V2" ]); ("contacts", [ "V3" ]) ]);
        ("hr-app", [ ("default", [ "V3" ]) ]);
        ("mail-app", [ ("default", [ "V1"; "V3" ]) ]);
        ("todo-app", [ ("default", [ "V2"; "V3" ]) ]);
        (hostile, [ ("default", [ "V2" ]) ]);
      ];
  }

(* [policy] with one principal's partitions replaced. *)
let with_partitions ?(policy = policy) principal partitions =
  {
    policy with
    Policyfile.principals =
      List.map
        (fun (p, parts) -> if p = principal then (p, partitions) else (p, parts))
        policy.Policyfile.principals;
  }

let resolve policy =
  match Policyfile.resolve policy with Ok r -> r | Error e -> failwith ("resolve: " ^ e)

(* Every principal with its resolved partitions, in registration order. *)
let deployment = resolve policy

let principals = Array.of_list (List.map fst deployment)

let partitions principal = List.assoc principal deployment

let queries =
  [|
    pq "Q(x) :- Meetings(x, y)";
    pq "Q(a) :- Meetings(a, b)";
    pq "Q(x, y) :- Meetings(x, y)";
    pq "Q(y) :- Meetings(x, y)";
    pq "Q(x, y, z) :- Contacts(x, y, z)";
    pq "Q(x) :- Contacts(x, y, z)";
    pq "Q(x) :- Meetings(x, y), Contacts(y, e, p)";
    pq "Q(x) :- Meetings(x, y), Meetings(x, z)";
    pq "Q() :- Unknown(u)";
  |]

let q_slots = queries.(0)
let q_meetings = queries.(2)
let q_contacts = queries.(4)
let q_join = pq "Q(x, e) :- Meetings(x, y), Contacts(y, e, p)"

let register_all ?(policy = policy) server =
  List.iter
    (fun (principal, partitions) -> Server.register server ~principal ~partitions)
    (resolve policy)

(* A serving configuration: two shards and a 256-entry label cache unless
   overridden. *)
let config ?(domains = 2) ?(mailbox_capacity = 1024) ?(cache_capacity = 256)
    ?(checkpoint_every = 0) ?(segment_bytes = 0) ?(group_commit = false) ?resident () =
  {
    Server.domains;
    mailbox_capacity;
    cache_capacity;
    checkpoint_every;
    segment_bytes;
    drain = Server.default_config.Server.drain;
    group_commit;
    resident;
  }

(* A server over the deployment, every principal registered. *)
let make_server ?limits ?journal ?trace ?(config = config ()) () =
  let server = Server.create ?limits ?journal ?trace ~config (pipeline ()) in
  register_all server;
  server

let make_service ?limits ?journal () =
  let service = Disclosure.Service.create ?limits ?journal (pipeline ()) in
  List.iter
    (fun (principal, partitions) ->
      Disclosure.Service.register service ~principal ~partitions)
    deployment;
  service

let random_history rng ~steps =
  List.init steps (fun _ ->
      ( principals.(Random.State.int rng (Array.length principals)),
        queries.(Random.State.int rng (Array.length queries)) ))

(* --- files -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [""] for a file that does not exist (yet). *)
let read_opt path = if Sys.file_exists path then read_file path else ""

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rm path = try Sys.remove path with Sys_error _ -> ()

let count_newlines s = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* A fresh, not yet existing journal base. Afterwards every file whose name
   starts with it is removed: its own family, every shard family
   ([<base>.shard<i>…]), spill files, and any sibling a test derives by
   suffixing the base. *)
let with_tmp_base f =
  let base = Filename.temp_file "disclosure-test" ".journal" in
  rm base;
  let dir = Filename.dirname base and name = Filename.basename base in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun file ->
          if String.starts_with ~prefix:name file then rm (Filename.concat dir file))
        (try Sys.readdir dir with Sys_error _ -> [||]))
    (fun () -> f base)

let with_socket f =
  let path = Filename.temp_file "disclosure-test" ".sock" in
  Fun.protect ~finally:(fun () -> rm path) (fun () -> f (Net.Addr.Unix_socket path))

(* Shard [shard]'s family under a server journal [base], as (name relative
   to the shard base, bytes): the active segment ("" when missing), the
   sealed segments in rotation order, and the checkpoint ("" when
   missing). Two families hold the same bytes iff these lists are equal. *)
let family_bytes base shard =
  let b = Server.shard_journal base shard in
  let sealed = Disclosure.Journal.sealed_segments b in
  let ckpt = Disclosure.Journal.ckpt_path b in
  let rel p = String.sub p (String.length b) (String.length p - String.length b) in
  (("", read_opt b) :: List.map (fun (_, p) -> (rel p, read_file p)) sealed)
  @ [ (rel ckpt, read_opt ckpt) ]

(* Shard [shard]'s record stream: the sealed segments in rotation order,
   then the active one. Equals a single unrotated journal's bytes as long
   as no checkpoint compacted anything. *)
let record_stream base shard =
  let b = Server.shard_journal base shard in
  String.concat ""
    (List.map (fun (_, p) -> read_file p) (Disclosure.Journal.sealed_segments b) @ [ read_opt b ])

let sorted_snapshot l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* --- replication ----------------------------------------------------------- *)

let make_follower ?resident ?max_bytes ~journal ~shards () =
  match Replicate.Follower.create ?resident ?max_bytes ~journal ~shards policy with
  | Ok f -> f
  | Error e -> failwith ("follower create: " ^ e)

(* Drive the follower to convergence through an in-process pull loop (no
   socket): ask from the follower's own cursor, apply, stop once the source
   answers an empty batch with [behind = 0]. *)
let catch_up source fol ~shards =
  for shard = 0 to shards - 1 do
    let rec pull rounds =
      if rounds > 10_000 then failwith (Printf.sprintf "shard %d: replication does not converge" shard);
      let seg, off = Replicate.Follower.cursor fol ~shard in
      let resp = Replicate.Source.serve_pull source ~shard ~seg ~off ~max_bytes:0 in
      (match Replicate.Follower.apply_batch fol ~shard resp with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "shard %d apply: %s" shard e));
      match resp with
      | Net.Codec.Batch { behind = 0; data = ""; _ } -> ()
      | _ -> pull (rounds + 1)
    in
    pull 0
  done
