(* Seeded request generators for the three workloads. Everything here is a
   function of the seed: the same seed gives the same policies, query pools
   and request streams. The program under test only ever sees the
   generated (principal, query) pairs. *)

module Rng = Workload.Rng
module Principalgen = Workload.Principalgen
module Querygen = Workload.Querygen
module Policy = Disclosure.Policy

type spec = (string * Disclosure.Sview.t list) list

type request = { principal : string; query : Cq.Query.t }

let views = Array.of_list Fbschema.Fb_views.all
let pipeline () = Fbschema.Fb_views.pipeline ()

(* A two-partition Chinese Wall: Policygen draws 1..max_partitions
   partitions, so redraw until it gives exactly two. *)
let rec two_partition_spec rng =
  match Workload.Policygen.partitions rng ~views ~max_partitions:2 ~max_elements:10 with
  | [ _; _ ] as spec -> spec
  | _ -> two_partition_spec rng

type pools = {
  covered : Cq.Query.t array;  (** Covered by the spec's first partition. *)
  probes : Cq.Query.t array;  (** Covered by no partition: always refused. *)
}

let pool_size = 16
let probe_size = 4

(* Queries the first partition covers are answered forever: only answered
   queries narrow the alive set, and every one of them keeps the first
   partition alive. Probes no partition covers are refused forever. Both
   facts hold for every history, so a principal's decisions do not depend
   on how Zipf sampling interleaves it with the others. Candidates are
   labeled once and shared by every spec. *)
let candidates rng =
  let pipeline = pipeline () in
  let g = Querygen.create ~seed:(Rng.int rng 1_000_000_000) () in
  let seen = Hashtbl.create 2048 in
  let out = ref [] in
  for _ = 1 to 2_000 do
    let q = Querygen.generate_simple g in
    let key = Cq.Query.to_string q in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := (q, Disclosure.Pipeline.label pipeline q) :: !out
    end
  done;
  List.rev !out

let take n l = List.filteri (fun i _ -> i < n) l

let pools_for candidates spec =
  let policy = Policy.make (Disclosure.Pipeline.registry (pipeline ())) spec in
  let first = (Policy.partitions policy).(0) in
  let covered = List.filter (fun (_, l) -> Policy.partition_covers first l) candidates in
  let probes = List.filter (fun (_, l) -> not (Policy.allowed policy l)) candidates in
  if List.length covered < pool_size || List.length probes < probe_size then None
  else
    Some
      {
        covered = Array.of_list (List.map fst (take pool_size covered));
        probes = Array.of_list (List.map fst (take probe_size probes));
      }

(* The ecosystem population: [specs] two-partition policies, each with its
   own pools; principal rank [r] gets spec [r mod specs]. *)
type ecosystem = {
  names : string array;
  specs : spec array;
  pools : pools array;
  zipf : Principalgen.t;
  rng : Rng.t;
}

let n_specs = 8

let ecosystem ~seed ~principals ~skew =
  let rng = Rng.create seed in
  let candidates = candidates rng in
  let rec spec_with_pools () =
    let spec = two_partition_spec rng in
    match pools_for candidates spec with Some p -> (spec, p) | None -> spec_with_pools ()
  in
  let sp = Array.init n_specs (fun _ -> spec_with_pools ()) in
  {
    names = Array.init principals Principalgen.name;
    specs = Array.map fst sp;
    pools = Array.map snd sp;
    zipf = Principalgen.create ~skew ~n:principals (Rng.split rng);
    rng = Rng.split rng;
  }

let spec_of e rank = e.specs.(rank mod n_specs)

(* About 90% answerable pool queries, 10% out-of-policy probes. *)
let next_ecosystem e =
  let rank = Principalgen.next e.zipf in
  let pools = e.pools.(rank mod n_specs) in
  let query =
    if Rng.int e.rng 10 = 0 then Rng.pick e.rng pools.probes else Rng.pick e.rng pools.covered
  in
  { principal = e.names.(rank); query }

(* cold_label: distinct stress queries of up to 15 atoms, spread over a few
   principals whose one partition holds every view, so most queries are
   answered. Distinct means distinct minimized canonical forms, so no query
   can hit any of the label cache's three key levels. *)
type cold = {
  g : Querygen.t;
  crng : Rng.t;
  cold_names : string array;
  seen : (string, unit) Hashtbl.t;
}

let cold_principals = 16

let cold ~seed =
  let rng = Rng.create seed in
  {
    g = Querygen.create ~seed:(Rng.int rng 1_000_000_000) ();
    crng = Rng.split rng;
    cold_names = Array.init cold_principals (Printf.sprintf "cold%02d");
    seen = Hashtbl.create 4096;
  }

let cold_spec : spec = [ ("all", Fbschema.Fb_views.all) ]

let rec next_cold c =
  let q = Querygen.generate c.g ~max_subqueries:5 in
  let key = Cq.Query.to_string (Cq.Minimize.canonicalize q) in
  if Hashtbl.mem c.seen key then next_cold c
  else begin
    Hashtbl.add c.seen key ();
    { principal = Rng.pick c.crng c.cold_names; query = q }
  end
