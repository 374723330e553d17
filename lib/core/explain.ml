type cause = {
  stage : string;
  reason : string;
}

type t = {
  principal : string;
  decision : string;
  label : string;
  label_width : int;
  atoms : (int * string list) list;
  mask_before : int;
  mask_after : int;
  partitions : (string * bool * bool) list;
  fuel_spent : int option;
  elapsed_ns : int;
  tier : string;
  cache_level : string;
  cause : cause list;
}

let mask_delta t = t.mask_before land lnot t.mask_after

let witnesses registry label =
  Label.atoms label
  |> List.map (fun al ->
         ( Label.rel al,
           List.map (fun v -> v.Sview.name) (Label.views_of_atom registry al) ))

let partition_report policy ~mask_before label =
  Policy.partitions policy |> Array.to_list
  |> List.mapi (fun i p ->
         ( Policy.partition_name p,
           mask_before land (1 lsl i) <> 0,
           Policy.partition_covers p label ))

(* One chain step per level of the refusal taxonomy, so an operator reading
   the explanation sees both the class ("resource exhaustion") and the
   concrete step ("fuel ran out mid-labeling"). Total: the final wildcard-free
   match means a new taxonomy variant fails to compile here until it gets a
   chain. *)
let cause_of_refusal ~stage reason =
  let step s r = { stage = s; reason = r } in
  match reason with
  | Guard.Policy ->
    [
      step stage "no still-alive policy partition covers the query's label";
      step "policy" "answering would exceed every partition's disclosure bound";
    ]
  | Guard.Resource r ->
    step stage "per-query resource budget exceeded (fail-closed refusal)"
    ::
    (match r with
    | Guard.Fuel -> [ step "budget" "the step-count fuel ran out mid-computation" ]
    | Guard.Deadline -> [ step "budget" "the wall-clock deadline passed mid-computation" ]
    | Guard.Query_too_large { atoms; max_atoms } ->
      [
        step "admit"
          (Printf.sprintf "query has %d body atom(s), admission cap is %d" atoms
             max_atoms);
      ]
    | Guard.Label_too_wide { width; max_width } ->
      [
        step "admit"
          (Printf.sprintf "label has %d atom(s), width cap is %d" width max_width);
      ]
    | Guard.Spill detail ->
      [
        step "fault-in"
          (Printf.sprintf
             "spilled disclosure state could not be read back (refusing rather than \
              forgetting history): %s"
             detail);
      ])
  | Guard.Overload ->
    [
      step stage "shard mailbox full: query shed before reaching any monitor";
      step "overload" "bounded-mailbox admission control; monitor state untouched";
    ]
  | Guard.Malformed msg ->
    [ step stage "input could not be understood"; step "malformed" msg ]
  | Guard.Fault msg ->
    [
      step stage "unexpected exception captured fail-closed";
      step "fault" msg;
    ]

let refused ~principal ~stage ?label ?(mask_before = 0) ?fuel_spent ?(elapsed_ns = 0)
    reason =
  {
    principal;
    decision = Monitor.decision_word (Monitor.Refused reason);
    label = (match label with Some l -> Label.encode l | None -> "-");
    label_width = (match label with Some l -> Array.length l | None -> -1);
    atoms = [];
    mask_before;
    mask_after = mask_before;
    partitions = [];
    fuel_spent;
    elapsed_ns;
    tier = "none";
    cache_level = "none";
    cause = cause_of_refusal ~stage reason;
  }

let pp ppf t =
  let mask ppf m = Format.fprintf ppf "%#x" m in
  Format.fprintf ppf "@[<v>decision   %s@," t.decision;
  Format.fprintf ppf "principal  %s@," t.principal;
  if t.label_width >= 0 then
    Format.fprintf ppf "label      %s (%d atom(s))@," t.label t.label_width
  else Format.fprintf ppf "label      - (refused before labeling)@,";
  (match t.atoms with
  | [] -> ()
  | atoms ->
    Format.fprintf ppf "witnesses:@,";
    List.iter
      (fun (rel, views) ->
        Format.fprintf ppf "  rel %-4d %s@," rel
          (match views with [] -> "(top: no view answers this atom)" | vs -> String.concat ", " vs))
      atoms);
  (match t.partitions with
  | [] -> ()
  | parts ->
    Format.fprintf ppf "partitions:@,";
    List.iter
      (fun (name, alive, covers) ->
        Format.fprintf ppf "  %-20s %s, %s@," name
          (if alive then "alive" else "dead")
          (if covers then "covers the label" else "does not cover"))
      parts);
  Format.fprintf ppf "mask       %a -> %a (delta %a)@," mask t.mask_before mask
    t.mask_after mask (mask_delta t);
  Format.fprintf ppf "tier       %s (cache: %s)@," t.tier t.cache_level;
  (match t.fuel_spent with
  | Some fuel -> Format.fprintf ppf "fuel       %d step(s)@," fuel
  | None -> ());
  Format.fprintf ppf "elapsed    %.3fus" (float_of_int t.elapsed_ns /. 1e3);
  match t.cause with
  | [] -> Format.fprintf ppf "@]"
  | cause ->
    Format.fprintf ppf "@,cause:@,";
    List.iteri
      (fun i c -> Format.fprintf ppf "  %d. [%s] %s@," (i + 1) c.stage c.reason)
      cause;
    Format.fprintf ppf "@]"
