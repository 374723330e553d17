(* The v2 record codec (framing, escaping, CRC), the layout of the journal
   family on disk, and the one append-only writer every file of the family
   is written through. The codec is pure string-in/string-out so the
   torture tests can exercise every byte offset without a file system in
   the loop; Service owns the torn-vs-corrupt policy. *)

let src = Logs.Src.create "disclosure.journal" ~doc:"Append-only journal-family writer"

module Log = (val Logs.src_log src : Logs.LOG)

let magic = "J2 "

(* --- escaping --------------------------------------------------------- *)

let must_escape c = c = '\\' || c = '\t' || c = '\n' || c = '\r'

let escape s =
  if not (String.exists must_escape s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\t' -> Buffer.add_string b "\\t"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape s =
  if not (String.contains s '\\') then Ok s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else
        match s.[i] with
        | '\\' ->
          if i + 1 >= n then Error "dangling backslash"
          else (
            match s.[i + 1] with
            | '\\' -> Buffer.add_char b '\\'; go (i + 2)
            | 't' -> Buffer.add_char b '\t'; go (i + 2)
            | 'n' -> Buffer.add_char b '\n'; go (i + 2)
            | 'r' -> Buffer.add_char b '\r'; go (i + 2)
            | c -> Error (Printf.sprintf "unknown escape \\%c" c))
        | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go 0
  end

(* --- CRC-32 (reflected, zlib polynomial) ------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF

(* --- framing ----------------------------------------------------------- *)

let hex_digits = "0123456789abcdef"

let add_payload buf payload =
  let crc = crc32 payload in
  Buffer.add_string buf magic;
  for shift = 7 downto 0 do
    Buffer.add_char buf hex_digits.[(crc lsr (4 * shift)) land 0xF]
  done;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (String.length payload));
  Buffer.add_char buf ' ';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let payload_of fields = String.concat "\t" (List.map escape fields)

let add_record buf fields = add_payload buf (payload_of fields)

let encode fields =
  let payload = payload_of fields in
  let buf = Buffer.create (String.length payload + 24) in
  add_payload buf payload;
  Buffer.contents buf

type record = {
  offset : int;
  fields : string list;
}

type torn = {
  torn_offset : int;
  torn_reason : string;
}

type corrupt = {
  corrupt_offset : int;
  corrupt_reason : string;
}

let is_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false
let is_digit = function '0' .. '9' -> true | _ -> false

(* One complete line (no newline included), or Error why it is not a valid
   record. The same check serves both the committed-record path (where a
   failure is corruption) and the tail path (where it is torn damage). *)
let parse_line line =
  let n = String.length line in
  if n < 3 || String.sub line 0 3 <> magic then Error "bad record magic"
  else if n < 12 then Error "record header truncated"
  else begin
    let crc_ok = ref true in
    for i = 3 to 10 do
      if not (is_hex line.[i]) then crc_ok := false
    done;
    if (not !crc_ok) || line.[11] <> ' ' then Error "malformed CRC field"
    else begin
      let j = ref 12 in
      while !j < n && is_digit line.[!j] do incr j done;
      if !j = 12 || !j >= n || line.[!j] <> ' ' then Error "malformed length field"
      else begin
        let crc = int_of_string ("0x" ^ String.sub line 3 8) in
        let len = int_of_string (String.sub line 12 (!j - 12)) in
        let payload = String.sub line (!j + 1) (n - !j - 1) in
        if String.length payload <> len then
          Error
            (Printf.sprintf "length mismatch: header says %d bytes, record has %d" len
               (String.length payload))
        else if crc32 payload <> crc then
          Error (Printf.sprintf "CRC mismatch (expected %08x, computed %08x)" crc (crc32 payload))
        else begin
          let rec unescape_all = function
            | [] -> Ok []
            | f :: rest -> (
              match unescape f with
              | Error e -> Error e
              | Ok f -> (
                match unescape_all rest with
                | Error e -> Error e
                | Ok rest -> Ok (f :: rest)))
          in
          match unescape_all (String.split_on_char '\t' payload) with
          | Error e -> Error ("invalid field escape: " ^ e)
          | Ok fields -> Ok fields
        end
      end
    end
  end

let parse content =
  let n = String.length content in
  let rec go offset acc =
    if offset >= n then Ok (List.rev acc, None)
    else
      match String.index_from_opt content offset '\n' with
      | None ->
        (* File ends without a newline: the commit point of the final record
           never made it to disk. Whatever the bytes say — even a payload
           that happens to check out — the record is uncommitted, which is
           precisely the state a torn append leaves behind. *)
        let tail = String.sub content offset (n - offset) in
        let reason =
          match parse_line tail with
          | Ok _ -> "record missing its trailing newline"
          | Error e -> e
        in
        Ok (List.rev acc, Some { torn_offset = offset; torn_reason = reason })
      | Some nl -> (
        let line = String.sub content offset (nl - offset) in
        match parse_line line with
        | Ok fields -> go (nl + 1) ({ offset; fields } :: acc)
        | Error reason -> Error { corrupt_offset = offset; corrupt_reason = reason })
  in
  go 0 []

let read_file path = parse (In_channel.with_open_bin path In_channel.input_all)

(* The full header shape: magic, 8 hex CRC digits, a space, at least one
   length digit, a space. The magic alone is not enough — a legacy line's
   principal may legally begin with "J2 " (legacy only refuses separator
   bytes), and misrouting it to the v2 parser would fail a replayable
   journal closed as corrupt. *)
let has_v2_header s =
  let n = String.length s in
  n >= 12
  && String.sub s 0 3 = magic
  && (let hex_ok = ref true in
      for i = 3 to 10 do
        if not (is_hex s.[i]) then hex_ok := false
      done;
      !hex_ok)
  && s.[11] = ' '
  &&
  let j = ref 12 in
  while !j < n && is_digit s.[!j] do incr j done;
  !j > 12 && !j < n && s.[!j] = ' '

let is_v2_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* A whole header fits well inside 64 bytes: 3 magic + 8 CRC + 1 +
           at most 19 length digits + 1. A first record torn inside the
           header is routed to the legacy parser, which reaches the same
           verdict (torn final line, or fail closed mid-file). *)
        let chunk = really_input_string ic (min 64 (in_channel_length ic)) in
        has_v2_header
          (match String.index_opt chunk '\n' with
          | Some nl -> String.sub chunk 0 nl
          | None -> chunk))

(* --- the journal family on disk ----------------------------------------- *)

let tmp_path path = path ^ ".tmp"

let segment_path base i = Printf.sprintf "%s.%d" base i

let ckpt_path base = base ^ ".ckpt"

let spill_path base = base ^ ".spill"

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Only the exact names rotation writes: [int_of_string_opt] alone would
   also take "01", "0x1", "1_0" or "+1", and a stray file under such a name
   would punch a hole in the index sequence (failing recovery) or be
   deleted by compaction. Other suffixes (the checkpoint, a server's shard
   bases) are not segments either. *)
let sealed_segments base =
  let dir = Filename.dirname base in
  let prefix = Filename.basename base ^ "." in
  let plen = String.length prefix in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun entry ->
           if String.starts_with ~prefix entry then
             let suffix = String.sub entry plen (String.length entry - plen) in
             match int_of_string_opt suffix with
             | Some i when i >= 1 && string_of_int i = suffix ->
               Some (i, Filename.concat dir entry)
             | _ -> None
           else None)
    |> List.sort compare

let ckpt_header ~covers ~count = [ "ckpt"; "2"; string_of_int covers; string_of_int count ]

let parse_ckpt_header = function
  | [ "ckpt"; "2"; covers; count ] -> (
    match (int_of_string_opt covers, int_of_string_opt count) with
    | Some covers, Some count when covers >= 0 && count >= 0 -> Ok (covers, count)
    | _ -> Error "malformed checkpoint header")
  | _ -> Error "not a checkpoint file"

(* The checkpoint's coverage bound, for the cursor only; recovery
   re-validates the whole checkpoint. *)
let ckpt_covers base =
  match read_file (ckpt_path base) with
  | Ok ({ fields; _ } :: _, None) -> (
    match parse_ckpt_header fields with Ok (covers, _) -> covers | Error _ -> 0)
  | Ok _ | Error _ | (exception Sys_error _) -> 0

let next_segment base =
  let newest = List.fold_left (fun acc (i, _) -> max acc i) 0 (sealed_segments base) in
  max newest (ckpt_covers base) + 1

let resume_cursor base =
  match (next_segment base, file_size base) with
  | 1, 0 -> (0, 0)
  | cursor -> cursor

(* Stage [path]'s replacement under its [tmp_path] and rename it into
   place; on any failure the staging file is removed and [path] is left as
   it was. *)
let stage_and_rename ?(fsync = false) ?(before_rename = ignore) path fill =
  let tmp = tmp_path path in
  try
    let r =
      Out_channel.with_open_bin tmp (fun oc ->
          let r = fill oc in
          flush oc;
          if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
          r)
    in
    before_rename ();
    Sys.rename tmp path;
    r
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let install_checkpoint base write =
  Faults.trip Faults.Checkpoint;
  stage_and_rename ~fsync:true
    ~before_rename:(fun () -> Faults.trip Faults.Ckpt_rename)
    (ckpt_path base) write

let family_exists base =
  Sys.file_exists base || Sys.file_exists (ckpt_path base) || sealed_segments base <> []

let remove_family base =
  let rm path = try Sys.remove path with Sys_error _ -> () in
  List.iter (fun (_, path) -> rm path) (sealed_segments base);
  List.iter rm
    [ base; ckpt_path base; tmp_path (ckpt_path base); spill_path base; tmp_path (spill_path base) ]

let truncate_file path size =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd size)

let seal_active base = Sys.rename base (segment_path base (next_segment base))

(* --- the append-only writer --------------------------------------------- *)

module Writer = struct
  type t = {
    path : string;
    stage : Faults.stage option; (* tripped between buffer and flush *)
    mutable oc : out_channel;
    mutable closed : bool; (* for good: never flickers, unlike [oc] *)
    mutable frontier : int * int;
        (* (segment, committed bytes), replaced as one value so a reader on
           another domain never pairs one segment with another's size *)
    mutable pending : int;
    mutable poisoned : string option;
  }

  let open_channel path = open_out_gen [ Open_append; Open_creat ] 0o644 path

  let create ?stage ?(segment = 0) path =
    let oc = open_channel path in
    let committed = file_size path in
    { path; stage; oc; closed = false; frontier = (segment, committed); pending = 0;
      poisoned = None }

  let path w = w.path
  let position w = w.frontier
  let committed w = snd w.frontier
  let set_committed w n = w.frontier <- (fst w.frontier, n)
  let pending w = w.pending
  let poisoned w = w.poisoned
  let is_open w = not w.closed

  let channel w =
    match (w.closed, w.poisoned) with
    | true, _ -> raise (Sys_error (w.path ^ ": writer is closed"))
    | false, Some msg -> failwith (w.path ^ ": writer poisoned by a failed append: " ^ msg)
    | false, None -> w.oc

  let append w s =
    let oc = channel w in
    (try output_string oc s
     with e ->
       w.poisoned <- Some (Printexc.to_string e);
       raise e);
    w.pending <- w.pending + String.length s

  (* Close the channel (dropping what it still buffers), cut the file to
     the frontier, and reopen. *)
  let cut w =
    close_out_noerr w.oc;
    w.pending <- 0;
    w.poisoned <- None;
    truncate_file w.path (committed w);
    w.oc <- open_channel w.path

  (* A failed append or flush may leave a prefix of the pending bytes on
     disk and the rest in the channel buffer; the next append would be
     concatenated onto that garbage, forming a line no parser can explain.
     If the cut fails too, the writer closes for good: refusing later
     appends is fail-closed, appending them after garbage is not. *)
  let rollback w =
    if (not w.closed) && (w.pending > 0 || w.poisoned <> None) then
      try cut w
      with e ->
        w.closed <- true;
        Log.err (fun m ->
            m "%s unrecoverable after a failed write, closing it: %s" w.path
              (Printexc.to_string e))

  let commit w =
    match
      let oc = channel w in
      Option.iter Faults.trip w.stage;
      flush oc
    with
    | () ->
      set_committed w (committed w + w.pending);
      w.pending <- 0
    | exception e ->
      rollback w;
      raise e

  let write w s =
    match append w s with
    | () -> commit w
    | exception e ->
      rollback w;
      raise e

  let truncate w size =
    set_committed w size;
    cut w

  (* After a rename (or a failed one), appends resume at the end of
     whatever file now has the name, in [segment]. *)
  let reopen ?segment w =
    let segment = Option.value segment ~default:(fst w.frontier) in
    close_out_noerr w.oc;
    w.oc <- open_channel w.path;
    w.frontier <- (segment, file_size w.path)

  let seal w =
    let oc = channel w in
    match
      close_out oc;
      Sys.rename w.path (segment_path w.path (fst w.frontier))
    with
    | () -> reopen ~segment:(fst w.frontier + 1) w
    | exception e ->
      reopen w;
      raise e

  let replace w fill =
    let r = stage_and_rename w.path fill in
    reopen w;
    r

  let close w =
    w.closed <- true;
    close_out_noerr w.oc
end
