type decision =
  | Answered
  | Refused of Guard.refusal_reason

(* Five words: the initial mask is the policy's full mask, recomputed on
   the rare paths that need it rather than stored per principal. *)
type t = {
  policy : Policy.t;
  mutable alive : int;
  mutable answered : int;
  mutable refused : int;
}

type state = {
  alive_mask : int;
  answered_count : int;
  refused_count : int;
}

exception Too_many_partitions of int

let max_partitions = 62

let full_mask n =
  if n > max_partitions then raise (Too_many_partitions n);
  (1 lsl n) - 1

let create policy =
  { policy; alive = full_mask (Policy.num_partitions policy); answered = 0; refused = 0 }

let initial t = full_mask (Policy.num_partitions t.policy)

let policy t = t.policy

(* Decision and commit are split so the service layer can order a durable
   journal append between them: evaluate never mutates, and a failed append
   refuses without having touched the monitor (fail-closed). *)
let evaluate t label =
  let parts = Policy.partitions t.policy in
  let surviving = ref 0 in
  Array.iteri
    (fun i p ->
      if t.alive land (1 lsl i) <> 0 && Policy.partition_covers p label then
        surviving := !surviving lor (1 lsl i))
    parts;
  if !surviving <> 0 then Some !surviving else None

let commit_answer t ~surviving =
  if surviving land lnot t.alive <> 0 then
    invalid_arg "Monitor.commit_answer: surviving mask not a subset of alive";
  t.alive <- surviving;
  t.answered <- t.answered + 1

let commit_refusal t = t.refused <- t.refused + 1

let submit t label =
  match evaluate t label with
  | Some surviving ->
    commit_answer t ~surviving;
    Answered
  | None ->
    commit_refusal t;
    Refused Guard.Policy

let submit_query t pipeline q = submit t (Pipeline.label pipeline q)

let alive t =
  let parts = Policy.partitions t.policy in
  Array.to_list parts
  |> List.filteri (fun i _ -> t.alive land (1 lsl i) <> 0)
  |> List.map Policy.partition_name

let alive_mask t = t.alive

let answered_count t = t.answered

let refused_count t = t.refused

let state t = { alive_mask = t.alive; answered_count = t.answered; refused_count = t.refused }

(* The checkpoint "p"-record field layout (mask in hex, then the two decimal
   counters). The spill file reuses this codec so spilled state is
   byte-identical to what a checkpoint would have written. *)
let state_fields (s : state) =
  [
    Printf.sprintf "%x" s.alive_mask;
    string_of_int s.answered_count;
    string_of_int s.refused_count;
  ]

let state_of_fields = function
  | [ mask_hex; answered_s; refused_s ] -> (
    match
      ( int_of_string_opt ("0x" ^ mask_hex),
        int_of_string_opt answered_s,
        int_of_string_opt refused_s )
    with
    | Some alive_mask, Some answered_count, Some refused_count ->
      Some { alive_mask; answered_count; refused_count }
    | _ -> None)
  | _ -> None

let is_pristine t = t.alive = initial t && t.answered = 0 && t.refused = 0

let pristine_state ~partitions =
  { alive_mask = full_mask partitions; answered_count = 0; refused_count = 0 }

let reset t =
  t.alive <- initial t;
  t.answered <- 0;
  t.refused <- 0

let restore t (s : state) =
  if s.alive_mask land lnot (initial t) <> 0 then
    invalid_arg "Monitor.restore: alive mask has bits outside the policy's partitions";
  if s.answered_count < 0 || s.refused_count < 0 then
    invalid_arg "Monitor.restore: negative counter";
  t.alive <- s.alive_mask;
  t.answered <- s.answered_count;
  t.refused <- s.refused_count

let is_answered = function
  | Answered -> true
  | Refused _ -> false

let is_refused d = not (is_answered d)

let decision_equal a b =
  match a, b with
  | Answered, Answered -> true
  | Refused r, Refused r' -> Guard.refusal_equal r r'
  | (Answered | Refused _), _ -> false

let pp_decision ppf = function
  | Answered -> Format.pp_print_string ppf "answered"
  | Refused Guard.Policy -> Format.pp_print_string ppf "refused"
  | Refused reason -> Format.fprintf ppf "refused (%a)" Guard.pp_refusal reason
