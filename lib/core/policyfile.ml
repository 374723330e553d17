type t = {
  views : Sview.t list;
  principals : (string * (string * string list) list) list;
}

exception Err of string

let failf fmt = Printf.ksprintf (fun s -> raise (Err s)) fmt

let strip_prefix ~prefix s =
  let pl = String.length prefix in
  if String.length s >= pl && String.sub s 0 pl = prefix then
    Some (String.trim (String.sub s pl (String.length s - pl)))
  else None

let parse ?path text =
  let views = ref [] in
  let principals = ref [] in (* reversed; partitions reversed within *)
  (* Errors name the file when we know it: "policy.conf:3: ..." rather than a
     bare "line 3: ..." the caller cannot attribute. *)
  let failf lineno fmt =
    match path with
    | Some p -> failf ("%s:%d: " ^^ fmt) p lineno
    | None -> failf ("line %d: " ^^ fmt) lineno
  in
  let parse_line lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then ()
    else
      match strip_prefix ~prefix:"view " line with
      | Some definition -> (
        match Cq.Parser.query definition with
        | Ok q -> (
          match Sview.of_query q with
          | v -> views := v :: !views
          | exception Sview.Invalid_view msg -> failf lineno "%s" msg)
        | Error e -> failf lineno "%s" e)
      | None -> (
        match strip_prefix ~prefix:"principal " line with
        | Some name ->
          if name = "" then failf lineno "empty principal name";
          principals := (name, []) :: !principals
        | None -> (
          match strip_prefix ~prefix:"partition " line with
          | Some rest -> (
            match String.index_opt rest ':' with
            | None -> failf lineno "expected 'partition name: V1, V2'"
            | Some i -> (
              let pname = String.trim (String.sub rest 0 i) in
              let view_names =
                String.sub rest (i + 1) (String.length rest - i - 1)
                |> String.split_on_char ','
                |> List.map String.trim
                |> List.filter (fun v -> v <> "")
              in
              if pname = "" then failf lineno "empty partition name";
              if view_names = [] then failf lineno "empty partition";
              match !principals with
              | [] -> failf lineno "partition before any principal"
              | (prin, parts) :: rest_prins ->
                principals := (prin, (pname, view_names) :: parts) :: rest_prins))
          | None -> failf lineno "unrecognized directive: %s" line))
  in
  match
    List.iteri (fun i line -> parse_line (i + 1) line) (String.split_on_char '\n' text)
  with
  | () ->
    Ok
      {
        views = List.rev !views;
        principals = List.rev_map (fun (p, parts) -> (p, List.rev parts)) !principals;
      }
  | exception Err msg -> Error msg

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse ~path text
  | exception Sys_error msg -> Error msg

(* Resolve every principal's partition view names against [t.views] — the
   registration list [load] feeds to [Service.register], shared with the
   serving layer's online reload (which must validate and stage a new
   configuration before swapping anything). *)
let resolve t =
  match
    let resolve_view principal name =
      match List.find_opt (fun v -> String.equal v.Sview.name name) t.views with
      | Some v -> v
      | None -> failf "principal %s references unknown view %s" principal name
    in
    List.map
      (fun (principal, partitions) ->
        if partitions = [] then failf "principal %s has no partitions" principal;
        ( principal,
          List.map
            (fun (pname, names) -> (pname, List.map (resolve_view principal) names))
            partitions ))
      t.principals
  with
  | resolved -> Ok resolved
  | exception Err msg -> Error msg

let load ?limits ?journal t =
  match resolve t with
  | Error msg -> Error msg
  | Ok resolved -> (
    match
      let pipeline = Pipeline.create t.views in
      let service = Service.create ?limits ?journal pipeline in
      List.iter
        (fun (principal, partitions) ->
          Service.register service ~principal ~partitions)
        resolved;
      service
    with
    | service -> Ok service
    | exception Err msg -> Error msg
    | exception Registry.Duplicate_view name -> Error ("duplicate view " ^ name)
    | exception Registry.Too_many_views rel -> Error ("too many views over relation " ^ rel)
    | exception Service.Duplicate_principal p -> Error ("duplicate principal " ^ p))

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Format.asprintf "view %a\n" Cq.Query.pp (Sview.to_query v)))
    t.views;
  List.iter
    (fun (principal, partitions) ->
      Buffer.add_string buf (Printf.sprintf "\nprincipal %s\n" principal);
      List.iter
        (fun (pname, names) ->
          Buffer.add_string buf
            (Printf.sprintf "partition %s: %s\n" pname (String.concat ", " names)))
        partitions)
    t.principals;
  Buffer.contents buf
