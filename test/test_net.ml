(* Tests for the networked front-end (lib/net). Its own executable, like the
   server suite: these tests bind real sockets and spawn accept/connection
   domains, plus the fault matrix arms global hooks.

   That the wire (plain and pipelined, under group commit too) decides
   exactly as the in-process path and leaves the same journal bytes is the
   differential oracle's transport axis (test/support/oracle.ml). This
   suite pins the rest:
   - fail-closed robustness: garbage, torn, oversized, bit-flipped and
     late frames produce typed protocol errors and a closed connection —
     never a crash, never a hang, never a journaled decision;
   - overload over the wire is the same fail-closed [Refused Overload] it
     is in-process, with monitor and journal untouched by the shed query. *)

open Support

module Monitor = Disclosure.Monitor
module Guard = Disclosure.Guard
module Journal = Disclosure.Journal
module Faults = Disclosure.Faults
module Frame = Net.Frame
module Codec = Net.Codec
module Errors = Net.Errors

let domains = 2

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make_server ?journal ?trace ?mailbox_capacity ?cache_capacity () =
  Support.make_server ?journal ?trace ~config:(config ~domains ?mailbox_capacity ?cache_capacity ()) ()

(* A deterministic mixed history: answers, policy refusals, malformed. *)
let history =
  [
    ("calendar-app", "Q(x) :- Meetings(x, y)");
    ("crm-app", "Q(x, y) :- Meetings(x, y)");
    ("hr-app", "Q(x, y, z) :- Contacts(x, y, z)");
    ("calendar-app", "Q(x, y) :- Meetings(x, y)");
    ("crm-app", "Q(x) :- Contacts(x, y, z)");
    ("hr-app", "Q(x) :- Meetings(x, y)");
    ("calendar-app", "Q(a) :- Meetings(a, b)");
    ("crm-app", "Q(x) :- Meetings(x, y), Contacts(y, e, p)");
    ("hr-app", "Q(x) :- Contacts(x, y, z)");
    ("calendar-app", "Q(y) :- Meetings(x, y)");
  ]

(* --- frame codec: pure torture ----------------------------------------- *)

let sample_payloads =
  [
    "";
    "x";
    Codec.encode_request
      (Codec.Query { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None });
    String.make 300 'q';
    "\x00\xff\ttab\nnewline";
  ]

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let frame = Frame.encode payload in
      match Frame.decode frame with
      | Frame.Frame { payload = p; consumed } ->
        check_bool "payload survives" true (String.equal p payload);
        check_int "whole frame consumed" (String.length frame) consumed
      | Frame.Need_more _ | Frame.Corrupt _ -> Alcotest.fail "valid frame must decode")
    sample_payloads;
  (* Two frames back to back: the first decode consumes exactly one. *)
  let a = Frame.encode "first" and b = Frame.encode "second" in
  match Frame.decode (a ^ b) with
  | Frame.Frame { payload; consumed } ->
    check_bool "first of two" true (String.equal payload "first");
    check_int "consumed only the first" (String.length a) consumed
  | _ -> Alcotest.fail "concatenated frames must decode one at a time"

(* Every proper prefix of a valid frame is [Need_more], never an exception,
   never a frame, never corrupt — the receiving loop can always keep
   reading. Mirrors the journal's truncate-at-every-offset torture. *)
let test_frame_torn_every_offset () =
  List.iter
    (fun payload ->
      let frame = Frame.encode payload in
      for cut = 0 to String.length frame - 1 do
        match Frame.decode (String.sub frame 0 cut) with
        | Frame.Need_more n ->
          check_bool "needs a positive number of bytes" true (n > 0);
          check_bool "never asks beyond the frame" true (n <= String.length frame - cut)
        | Frame.Frame _ -> Alcotest.failf "prefix of %d bytes decoded as a frame" cut
        | Frame.Corrupt e ->
          Alcotest.failf "prefix of %d bytes reported corrupt: %s" cut (Errors.to_string e)
      done)
    sample_payloads

(* Every single-byte corruption of a valid frame is detected: the decoder
   reports [Corrupt] or keeps waiting ([Need_more], when the flip enlarges
   the declared length) — it never yields a frame, and never raises. *)
let test_frame_flip_every_byte () =
  List.iter
    (fun payload ->
      let frame = Frame.encode payload in
      for i = 0 to String.length frame - 1 do
        let flipped = Bytes.of_string frame in
        Bytes.set flipped i (Char.chr (Char.code frame.[i] lxor 0x40));
        match Frame.decode (Bytes.to_string flipped) with
        | Frame.Corrupt _ | Frame.Need_more _ -> ()
        | Frame.Frame _ -> Alcotest.failf "flip at byte %d went undetected" i
      done)
    sample_payloads

let test_frame_oversized_rejected_early () =
  (* A hostile header declaring 2 GiB must be rejected from the 13 header
     bytes alone — before any payload is buffered. *)
  let b = Buffer.create 13 in
  Buffer.add_string b Frame.magic;
  Buffer.add_char b (Char.chr Frame.version);
  List.iter (Buffer.add_char b) [ '\x7f'; '\xff'; '\xff'; '\xff' ];
  List.iter (Buffer.add_char b) [ '\x00'; '\x00'; '\x00'; '\x00' ];
  (match Frame.decode (Buffer.contents b) with
  | Frame.Corrupt { Errors.kind = Errors.Oversized; _ } -> ()
  | _ -> Alcotest.fail "oversized declared length must be corrupt at the header");
  (* And a length just over a custom cap, likewise. *)
  let frame = Frame.encode (String.make 100 'x') in
  match Frame.decode ~max_payload:99 frame with
  | Frame.Corrupt { Errors.kind = Errors.Oversized; _ } -> ()
  | _ -> Alcotest.fail "cap must apply"

let test_frame_fuzz_never_raises () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"Frame.decode is total"
       QCheck.(string_of_size Gen.(0 -- 200))
       (fun s ->
         (match Frame.decode s with
         | Frame.Frame { consumed; _ } -> consumed <= String.length s
         | Frame.Need_more n -> n > 0
         | Frame.Corrupt _ -> true)));
  (* Garbage appended to a valid frame: the first frame still decodes. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"valid frame survives trailing garbage"
       QCheck.(string_of_size Gen.(0 -- 50))
       (fun garbage ->
         let stats = Codec.encode_request Codec.Stats in
         let frame = Frame.encode stats in
         match Frame.decode (frame ^ garbage) with
         | Frame.Frame { payload; consumed } ->
           String.equal payload stats && consumed = String.length frame
         | _ -> false))

(* A version-1 frame (the JSON-payload protocol) is refused by version,
   whatever its payload, as soon as the version byte is in. *)
let test_frame_version_one_refused () =
  let v1 = Bytes.of_string (Frame.encode "{\"op\":\"ping\"}") in
  Bytes.set v1 4 '\x01';
  let v1 = Bytes.to_string v1 in
  List.iter
    (fun cut ->
      match Frame.decode (String.sub v1 0 cut) with
      | Frame.Corrupt { Errors.kind = Errors.Bad_version; detail } ->
        check_bool "detail names the version" true (detail = "unsupported protocol version 1")
      | _ -> Alcotest.failf "a version-1 frame cut at %d must be bad-version" cut)
    [ 5; Frame.header_len; String.length v1 ]

(* The one CRC of journal records and frames: slicing-by-4 agrees with the
   bytewise definition at every length from 0 to 300 and every offset
   into a buffer, and allocates nothing. *)
let bytewise_crc32 =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun s ->
    let c = ref 0xFFFFFFFF in
    String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
    !c lxor 0xFFFFFFFF

let test_crc32_slicing () =
  check_int "check value" 0xCBF43926 (Journal.crc32 "123456789");
  let rng = Random.State.make [| 32 |] in
  let text = String.init 600 (fun _ -> Char.chr (Random.State.int rng 256)) in
  for len = 0 to 300 do
    for off = 0 to 300 do
      let s = String.sub text off len in
      if Journal.crc32 s <> bytewise_crc32 s then
        Alcotest.failf "crc32 differs at length %d, offset %d" len off
    done
  done;
  let s = String.sub text 3 300 in
  ignore (Journal.crc32 s);
  let before = Gc.minor_words () in
  let crc = Journal.crc32 s in
  check_int "no allocation" 0 (int_of_float (Gc.minor_words () -. before));
  check_int "same value" (bytewise_crc32 s) crc

(* --- payload codec ------------------------------------------------------ *)

let all_error_kinds =
  [
    Errors.Bad_magic; Errors.Bad_version; Errors.Oversized; Errors.Crc_mismatch;
    Errors.Torn; Errors.Timeout; Errors.Bad_payload; Errors.Bad_request;
    Errors.Unknown_principal; Errors.Busy; Errors.Shutting_down; Errors.Fault;
  ]

(* Every refusal, as its journal tag decodes. *)
let all_refusals =
  List.filter_map Guard.refusal_of_tag
    [
      "policy"; "resource:fuel"; "resource:deadline"; "resource:query-too-large";
      "resource:label-too-wide"; "resource:spill"; "overload"; "malformed"; "fault";
    ]

let test_error_tags_roundtrip () =
  List.iter
    (fun kind ->
      match Errors.kind_of_tag (Errors.kind_to_tag kind) with
      | Some k -> check_bool "tag roundtrips" true (k = kind)
      | None -> Alcotest.failf "tag %s does not roundtrip" (Errors.kind_to_tag kind))
    all_error_kinds;
  check_bool "unknown tag refused" true (Errors.kind_of_tag "no-such-tag" = None);
  check_int "every refusal tag decodes" 9 (List.length all_refusals)

let gen_request, gen_response =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 80) in
  let nat = map (fun i -> i land max_int) int in
  let trace = opt (pair nat nat) in
  let decision =
    oneof [ return Monitor.Answered; map (fun r -> Monitor.Refused r) (oneofl all_refusals) ]
  in
  (* The documents cross as JSON text, so their strings stay printable. *)
  let doc =
    map2
      (fun k v -> Obs.Json.Obj [ (k, Obs.Json.Str v); ("n", Obs.Json.Num 1.5) ])
      string_printable string_printable
  in
  let request =
    oneof
      [
        map3 (fun principal query trace -> Codec.Query { principal; query; trace }) bytes bytes trace;
        map3 (fun principal query trace -> Codec.Explain { principal; query; trace }) bytes bytes trace;
        return Codec.Ping;
        return Codec.Stats;
        map3
          (fun (shard, seg) (off, max_bytes) (follower, trace) ->
            Codec.Pull { shard; seg; off; max_bytes; follower; trace })
          (pair nat nat) (pair nat nat) (pair bytes trace);
      ]
  in
  let response =
    oneof
      [
        map (fun d -> Codec.Decision d) decision;
        return Codec.Pong;
        map (fun d -> Codec.Stats_doc d) doc;
        map3
          (fun (shard, data) (next_seg, next_off) (behind, trace) ->
            Codec.Batch { shard; data; next_seg; next_off; behind; trace })
          (pair nat bytes) (pair nat nat) (pair nat trace);
        map3
          (fun shard data (next_seg, next_off) -> Codec.Snapshot { shard; data; next_seg; next_off })
          nat bytes (pair nat nat);
        map2 (fun decision doc -> Codec.Explained { decision; doc }) decision doc;
        map2 (fun kind detail -> Codec.Error (Errors.v kind detail)) (oneofl all_error_kinds) bytes;
      ]
  in
  (request, response)

let test_codec_roundtrip () =
  (* Every constructor, every error kind and every refusal, by hand ... *)
  let requests =
    [
      Codec.Ping; Codec.Stats;
      Codec.Query { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None };
      Codec.Query { principal = "weird \"name\"\t"; query = ""; trace = Some (max_int, 0) };
      Codec.Explain { principal = "\x00"; query = "\xff"; trace = Some (1, 2) };
      Codec.Pull { shard = 1; seg = 2; off = 3; max_bytes = 4; follower = ""; trace = None };
    ]
  in
  List.iter
    (fun req ->
      match Codec.decode_request (Codec.encode_request req) with
      | Ok req' -> check_bool "request roundtrips" true (req = req')
      | Error e -> Alcotest.fail (Errors.to_string e))
    requests;
  let responses =
    Codec.Pong
    :: Codec.Decision Monitor.Answered
    :: Codec.Stats_doc (Obs.Json.Obj [ ("uptime_s", Obs.Json.Num 1.5) ])
    :: Codec.Explained { decision = Monitor.Answered; doc = Obs.Json.Obj [] }
    :: Codec.Batch { shard = 0; data = ""; next_seg = 1; next_off = 0; behind = 0; trace = None }
    :: Codec.Snapshot { shard = 0; data = "\x00\xff"; next_seg = 1; next_off = 0 }
    :: List.map (fun k -> Codec.Error (Errors.v k "detail")) all_error_kinds
    @ List.map (fun r -> Codec.Decision (Monitor.Refused r)) all_refusals
  in
  List.iter
    (fun resp ->
      match Codec.decode_response (Codec.encode_response resp) with
      | Ok resp' -> check_bool "response roundtrips" true (resp = resp')
      | Error msg -> Alcotest.fail msg)
    responses;
  (* ... and with arbitrary bytes in every string field. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"decode_request (encode_request r) = Ok r"
       (QCheck.make gen_request)
       (fun r -> Codec.decode_request (Codec.encode_request r) = Ok r));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:2000 ~name:"decode_response (encode_response r) = Ok r"
       (QCheck.make gen_response)
       (fun r -> Codec.decode_response (Codec.encode_response r) = Ok r))

let expect_payload_error what kind payload =
  match Codec.decode_request payload with
  | Error e when e.Errors.kind = kind ->
    check_bool (what ^ ": fatal iff bad-payload") (kind = Errors.Bad_payload) (Errors.fatal e)
  | Error e -> Alcotest.failf "%s: expected %s, got %s" what (Errors.kind_to_tag kind) (Errors.to_string e)
  | Ok _ -> Alcotest.failf "%s: payload %S must not decode" what payload

let test_codec_rejects_malformed () =
  let query = Codec.encode_request (Codec.Query { principal = "p"; query = "Q"; trace = None }) in
  let int8 v = String.init 8 (fun i -> Char.chr ((v lsr (8 * (7 - i))) land 0xff)) in
  List.iter
    (fun (what, kind, payload) -> expect_payload_error what kind payload)
    [
      ("empty payload", Errors.Bad_payload, "");
      ("unknown tag", Errors.Bad_request, "z");
      ("unknown tag with fields", Errors.Bad_request, "\x00\x00\x00\x00\x01p");
      ("trailing byte", Errors.Bad_payload, query ^ "\x00");
      ("trailing byte after ping", Errors.Bad_payload, "pp");
      ("string longer than the payload", Errors.Bad_payload, "q\x00\x00\x03\xe8p");
      ("trace flag out of range", Errors.Bad_payload, String.sub query 0 (String.length query - 1) ^ "\x02");
      ( "negative integer",
        Errors.Bad_request,
        "l" ^ int8 (-1) ^ int8 0 ^ int8 0 ^ int8 0 ^ "\x00\x00\x00\x00\x00" );
      ("JSON-era payload", Errors.Bad_request, "{\"op\":\"ping\"}");
    ];
  (* Every proper prefix of every request is a truncated field. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"truncated requests are bad-payload"
       (QCheck.make gen_request)
       (fun r ->
         let p = Codec.encode_request r in
         List.for_all
           (fun cut ->
             match Codec.decode_request (String.sub p 0 cut) with
             | Error { Errors.kind = Errors.Bad_payload; _ } -> true
             | _ -> false)
           (List.init (String.length p) Fun.id)));
  (match Codec.decode_response "D\x01\x00\x00\x00\x02no" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unknown refusal tag must not decode");
  (match Codec.decode_response (Codec.encode_response Codec.Pong ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a response with trailing bytes must not decode");
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:1000 ~name:"Codec.decode_request is total"
       QCheck.(string_of_size Gen.(0 -- 120))
       (fun s ->
         match Codec.decode_request s with Ok _ -> true | Error _ -> true));
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:1000 ~name:"Codec.decode_response is total"
       QCheck.(string_of_size Gen.(0 -- 120))
       (fun s ->
         match Codec.decode_response s with Ok _ -> true | Error _ -> true))

let test_addr_parse () =
  (match Net.Addr.of_string "unix:/tmp/x.sock" with
  | Ok (Net.Addr.Unix_socket "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match Net.Addr.of_string "tcp:127.0.0.1:8443" with
  | Ok (Net.Addr.Tcp ("127.0.0.1", 8443)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun s ->
      match Net.Addr.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "address %S must not parse" s)
    [ ""; "unix:"; "tcp:"; "tcp:nohost"; "tcp:host:notaport"; "tcp:host:99999"; "/tmp/x" ];
  List.iter
    (fun a ->
      check_bool "addr roundtrips" true (Net.Addr.of_string (Net.Addr.to_string a) = Ok a))
    [ Net.Addr.Unix_socket "/run/d.sock"; Net.Addr.Tcp ("::1-ish-host", 0) ]

(* --- end-to-end over a real socket -------------------------------------- *)

let run_wire addr pairs =
  Net.Client.with_connection addr (fun c ->
      List.map
        (fun (principal, q) ->
          match Net.Client.query_string c ~principal q with
          | Ok d -> d
          | Error e -> Alcotest.failf "wire error for %s: %s" principal (Errors.to_string e))
        pairs)

(* Mixed request kinds keep positional order through the pipelined frame
   loop: immediate replies (pings) interleave with deferred decisions. *)
let test_pipelined_mixed_requests_ordered () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      let reqs =
        [
          Codec.Ping;
          Codec.Query { principal = "calendar-app"; query = "Q(x) :- Meetings(x, y)"; trace = None };
          Codec.Ping;
          Codec.Query { principal = "calendar-app"; query = "Q(x, y) :- Meetings(x, y)"; trace = None };
          Codec.Ping;
        ]
      in
      let responses =
        Net.Client.with_connection addr (fun c -> Net.Client.request_pipelined c reqs)
      in
      (match responses with
      | [ Codec.Pong; Codec.Decision d1; Codec.Pong; Codec.Decision d2; Codec.Pong ] ->
        check_bool "first decision answered" true (Monitor.is_answered d1);
        check_bool "second decision refused (projection widens)" true
          (Monitor.is_refused d2)
      | rs -> Alcotest.failf "responses out of order or mistyped (%d)" (List.length rs));
      Net.Listener.stop listener;
      Server.stop server)

(* Group commit behind a pipelined connection: each round's batch shares
   one covering flush, so the shards never flush more often than they
   decide. *)
let test_pipelined_group_commit_flushes () =
  with_tmp_base (fun base ->
      with_socket (fun addr ->
          let server =
            Support.make_server ~journal:base ~config:(config ~domains ~group_commit:true ()) ()
          in
          Server.start server;
          let listener = Net.Listener.create ~server addr in
          let decisions =
            Net.Client.with_connection addr (fun c ->
                Net.Client.query_batch_string ~depth:4 c history)
          in
          Net.Listener.stop listener;
          Server.drain server;
          let flushes = Array.fold_left ( + ) 0 (Server.flush_counts server) in
          Server.stop server;
          check_bool "every pipelined query decided" true (List.for_all Result.is_ok decisions);
          check_bool "some flushes counted" true (flushes > 0);
          check_bool "group commit flushed at most once per decision" true
            (flushes <= List.length history)))

(* --- the framed stream: one reader, one writer ---------------------------- *)

(* A connected pair: the reader's end and the writer's end. *)
let with_pair f =
  let rd, wr = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ rd; wr ])
    (fun () -> f rd wr)

(* Every payload [next] hands over, until it holds at most a prefix. *)
let rec drain r acc =
  match Frame.next r with
  | Ok (Some p) -> drain r (p :: acc)
  | Ok None -> acc
  | Error e -> Alcotest.failf "unexpected corrupt verdict: %s" (Errors.to_string e)

let fill_ok r =
  match Frame.fill r with
  | Ok n -> n
  | Error e -> Alcotest.failf "fill: %s" (Errors.to_string e)

let check_payloads what expected got =
  Alcotest.(check (list string)) what expected (List.rev got)

(* A stream cut at every byte boundary into two writes, and one written a
   byte at a time: the reader delivers exactly the frames sent, in order,
   and a clean EOF between frames reads as [Ok 0]. *)
let test_reader_split_every_boundary () =
  let stream = String.concat "" (List.map Frame.encode sample_payloads) in
  let n = String.length stream in
  for cut = 1 to n - 1 do
    with_pair (fun rd wr ->
        let r = Frame.reader rd in
        let got = ref [] in
        List.iter
          (fun (off, len) ->
            ignore (Unix.write_substring wr stream off len);
            ignore (fill_ok r);
            got := drain r !got)
          [ (0, cut); (cut, n - cut) ];
        check_payloads (Printf.sprintf "cut at %d" cut) sample_payloads !got)
  done;
  with_pair (fun rd wr ->
      let r = Frame.reader rd in
      let got = ref [] in
      String.iter
        (fun c ->
          ignore (Unix.write_substring wr (String.make 1 c) 0 1);
          check_int "one byte per read" 1 (fill_ok r);
          got := drain r !got)
        stream;
      check_payloads "byte at a time" sample_payloads !got;
      Unix.shutdown wr Unix.SHUTDOWN_SEND;
      check_int "clean EOF between frames" 0 (fill_ok r))

(* A pipelined window far larger than the reader's initial 4 KiB, and one
   frame larger than it on its own, sent through the writer from another
   domain: every frame arrives whole and in order. *)
let test_reader_window_larger_than_buffer () =
  let payloads =
    List.init 200 (fun i -> Printf.sprintf "%03d:%s" i (String.make (50 + (i * 7 mod 300)) 'w'))
    @ [ String.init 100_000 (fun i -> Char.chr (i land 0xff)); "last" ]
  in
  with_pair (fun rd wr ->
      let writer =
        Domain.spawn (fun () ->
            let w = Frame.writer wr in
            List.iter (Frame.add w) payloads;
            let n = Frame.flush w in
            Unix.shutdown wr Unix.SHUTDOWN_SEND;
            n)
      in
      let r = Frame.reader rd in
      let rec loop acc = if fill_ok r = 0 then acc else loop (drain r acc) in
      let got = loop [] in
      check_int "writer wrote every frame"
        (List.fold_left (fun n p -> n + Frame.header_len + String.length p) 0 payloads)
        (Domain.join writer);
      check_payloads "window delivered in order" payloads got)

(* EOF, or a reset, in the middle of a frame is [Torn], never a frame and
   never a clean close. *)
let test_reader_eof_mid_frame () =
  let frame = Frame.encode (Codec.encode_request Codec.Ping) in
  List.iter
    (fun cut ->
      with_pair (fun rd wr ->
          ignore (Unix.write_substring wr frame 0 cut);
          Unix.shutdown wr Unix.SHUTDOWN_SEND;
          let r = Frame.reader rd in
          check_int "prefix arrives" cut (fill_ok r);
          check_bool "a prefix is not a frame" true (Frame.next r = Ok None);
          match Frame.fill r with
          | Error { Errors.kind = Errors.Torn; _ } -> ()
          | Ok n -> Alcotest.failf "cut at %d: fill read %d instead of torn" cut n
          | Error e -> Alcotest.failf "cut at %d: %s" cut (Errors.to_string e)))
    [ 1; Frame.header_len - 1; Frame.header_len; String.length frame - 1 ]

(* A corrupt frame behind valid ones: the valid frames come out first, then
   the verdict. *)
let test_reader_corrupt_after_valid () =
  let flipped = Bytes.of_string (Frame.encode "third") in
  Bytes.set flipped (Frame.header_len + 1) 'X';
  with_pair (fun rd wr ->
      let stream = Frame.encode "first" ^ Frame.encode "second" ^ Bytes.to_string flipped in
      ignore (Unix.write_substring wr stream 0 (String.length stream));
      let r = Frame.reader rd in
      ignore (fill_ok r);
      check_bool "first" true (Frame.next r = Ok (Some "first"));
      check_bool "second" true (Frame.next r = Ok (Some "second"));
      match Frame.next r with
      | Error { Errors.kind = Errors.Crc_mismatch; _ } -> ()
      | _ -> Alcotest.fail "the flipped frame must be a CRC mismatch")

(* A declared length above the cap is rejected from the header alone: no
   payload byte was ever sent. *)
let test_reader_oversized_from_header () =
  let header = String.sub (Frame.encode (String.make 101 'x')) 0 Frame.header_len in
  with_pair (fun rd wr ->
      ignore (Unix.write_substring wr header 0 Frame.header_len);
      let r = Frame.reader ~max_payload:100 rd in
      check_int "only the header arrived" Frame.header_len (fill_ok r);
      match Frame.next r with
      | Error { Errors.kind = Errors.Oversized; _ } -> ()
      | _ -> Alcotest.fail "a length over the cap must be oversized at the header")

(* A silent peer trips the socket's receive timeout as [Timeout]. *)
let test_reader_deadline () =
  with_pair (fun rd _wr ->
      Unix.setsockopt_float rd Unix.SO_RCVTIMEO 0.05;
      let r = Frame.reader rd in
      match Frame.fill r with
      | Error { Errors.kind = Errors.Timeout; _ } -> ()
      | Ok n -> Alcotest.failf "a silent peer delivered %d bytes" n
      | Error e -> Alcotest.failf "expected a timeout, got %s" (Errors.to_string e))

(* Every byte [Conn.serve] writes back for [reqs], sent in one write so
   they land in one batch. *)
let conn_reply_bytes ~handle reqs =
  let client, server = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Domain.spawn (fun () -> Net.Conn.serve ~handle server) in
  let request = String.concat "" (List.map (fun r -> Frame.encode (Codec.encode_request r)) reqs) in
  ignore (Unix.write_substring client request 0 (String.length request));
  Unix.shutdown client Unix.SHUTDOWN_SEND;
  let out = Buffer.create 1024 in
  let chunk = Bytes.create 1024 in
  let rec read_all () =
    match Unix.read client chunk 0 1024 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes out chunk 0 n;
      read_all ()
  in
  read_all ();
  Domain.join conn;
  Unix.close client;
  Buffer.contents out

(* The bytes [Conn.serve] writes for a pipelined request sequence are
   exactly the concatenation of each response's [Frame.encode] — the one
   writer changes no byte on the wire. Immediate and deferred replies, and
   a non-fatal error, are interleaved; the requests arrive in one write so
   they land in one batch. *)
let test_conn_wire_bytes () =
  let stats = Obs.Json.Obj [ ("uptime_s", Obs.Json.Num 1.5) ] in
  let reqs =
    [
      Codec.Ping;
      Codec.Query { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None };
      Codec.Stats;
      Codec.Query { principal = "hr-app"; query = "Q(x) :- Meetings(x, y)"; trace = None };
      Codec.Explain { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None };
      Codec.Ping;
    ]
  in
  let handle = function
    | Codec.Ping -> Net.Conn.Now Codec.Pong
    | Codec.Stats -> Net.Conn.Now (Codec.Stats_doc stats)
    | Codec.Query { principal = "crm-app"; _ } -> Net.Conn.Later (fun () -> Codec.Decision Monitor.Answered)
    | Codec.Query _ -> Net.Conn.Later (fun () -> Codec.Decision (Monitor.Refused Guard.Policy))
    | Codec.Explain _ | Codec.Pull _ -> Net.Conn.Now (Codec.Error (Errors.bad_request "not here"))
  in
  let expected =
    [
      Codec.Pong;
      Codec.Decision Monitor.Answered;
      Codec.Stats_doc stats;
      Codec.Decision (Monitor.Refused Guard.Policy);
      Codec.Error (Errors.bad_request "not here");
      Codec.Pong;
    ]
  in
  Alcotest.(check string) "Conn.serve bytes = concatenated Frame.encode"
    (String.concat "" (List.map (fun r -> Frame.encode (Codec.encode_response r)) expected))
    (conn_reply_bytes ~handle reqs)

(* A handler that raises costs its own request only. Six queries arrive in
   one write; the third raises, either in [handle] itself or in its
   deferred thunk. The client gets the two decisions before it, then a
   fault frame, then EOF — and in the thunk case every other thunk is
   still forced, because forcing is what decides a submitted query. *)
let test_raising_handler_costs_one_request () =
  let n = 6 and k = 3 in
  let decision = Codec.Decision Monitor.Answered in
  let run ~raise_in_handle =
    let forced = Atomic.make 0 and seen = ref 0 in
    let handle _ =
      incr seen;
      let i = !seen in
      if raise_in_handle && i = k then failwith "handler boom";
      Net.Conn.Later
        (fun () ->
          Atomic.incr forced;
          if i = k then failwith "thunk boom";
          decision)
    in
    let q = Codec.Query { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None } in
    let rec frames buf =
      match Frame.decode buf with
      | Frame.Frame { payload; consumed } ->
        Codec.decode_response payload
        :: frames (String.sub buf consumed (String.length buf - consumed))
      | _ -> []
    in
    let out = conn_reply_bytes ~handle (List.init n (fun _ -> q)) in
    (frames out, Atomic.get forced)
  in
  let expect what boom ~forced:expected (responses, forced) =
    let want = [ Ok decision; Ok decision; Ok (Codec.Error (Errors.fault boom)) ] in
    if responses <> want then
      Alcotest.failf "%s: expected decision, decision, fault; got %s" what
        (String.concat ", "
           (List.map
              (function
                | Ok (Codec.Error e) -> Errors.to_string e
                | Ok _ -> "response"
                | Error e -> "undecodable: " ^ e)
              responses));
    check_int (what ^ ": thunks forced") expected forced
  in
  expect "raise in handle" {|Failure("handler boom")|} ~forced:(k - 1)
    (run ~raise_in_handle:true);
  expect "raise in thunk" {|Failure("thunk boom")|} ~forced:n (run ~raise_in_handle:false)

(* [Frame.flush] under EINTR: the frame overflows the socket buffer so
   the writer blocks, and an interval timer delivers SIGALRM while it is
   blocked — each delivery interrupts the write with EINTR. The reader only
   starts draining after the writer has filled the buffer. Every byte must
   arrive, in order — the EINTR/partial-write loop may not drop, duplicate,
   or reorder anything. *)
let test_flush_survives_eintr () =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      ignore (Sys.signal Sys.sigalrm previous))
    (fun () ->
      let sender, receiver = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let payload =
        String.init (1 lsl 18) (fun i -> Char.chr ((i * 131) land 0xff))
      in
      let reader =
        Domain.spawn (fun () ->
            (* Let the writer fill the socket buffer and block in [write]
               first, so the timer interrupts a blocked syscall. *)
            (try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
            let buf = Bytes.create 4096 in
            let out = Buffer.create (String.length payload) in
            let rec loop () =
              match Unix.read receiver buf 0 (Bytes.length buf) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes out buf 0 n;
                loop ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
            in
            loop ();
            Unix.close receiver;
            Buffer.contents out)
      in
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.005; it_value = 0.005 });
      let w = Frame.writer sender in
      Frame.add w payload;
      ignore (Frame.flush w);
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Unix.close sender;
      let received = Domain.join reader in
      let frame = Frame.encode payload in
      check_int "every byte arrived" (String.length frame) (String.length received);
      check_bool "bytes intact and in order" true (String.equal frame received))

let test_ping_stats_over_wire () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      Net.Client.with_connection addr (fun c ->
          Net.Client.ping c;
          ignore (Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)");
          let doc = Net.Client.stats c in
          check_bool "stats has uptime" true (Obs.Json.member "uptime_s" doc <> None);
          let metrics = Obs.Json.member "metrics" doc in
          check_bool "stats has metrics" true (metrics <> None);
          let counter name =
            match Option.bind metrics (Obs.Json.member name) with
            | Some (Obs.Json.Num n) -> int_of_float n
            | _ -> Alcotest.failf "metrics.%s missing from stats document" name
          in
          check_bool "accepts counted in stats" true (counter "net_accepted" >= 1);
          check_bool "requests counted in stats" true (counter "net_requests" >= 2);
          check_bool "bytes counted in stats" true
            (counter "net_bytes_in" > 0 && counter "net_bytes_out" > 0);
          (* Lockstep: a read per request so far, and a write per response
             sent before the stats request was decided. *)
          check_bool "reads counted in stats" true (counter "net_reads" >= 3);
          check_int "writes counted in stats" 2 (counter "net_writes"));
      Net.Listener.stop listener;
      Server.stop server)

(* Semantic errors ride on intact framing and keep the connection open. *)
let test_unknown_principal_keeps_connection () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      Net.Client.with_connection addr (fun c ->
          (match Net.Client.query_string c ~principal:"nobody" "Q(x) :- Meetings(x, y)" with
          | Error { Errors.kind = Errors.Unknown_principal; _ } -> ()
          | _ -> Alcotest.fail "unknown principal must be a typed error");
          (match Net.Client.query_string c ~principal:"crm-app" "this is not cq((" with
          | Error { Errors.kind = Errors.Bad_request; _ } -> ()
          | _ -> Alcotest.fail "unparseable query must be bad-request");
          (* Same connection still serves. *)
          match Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)" with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Errors.to_string e));
      Net.Listener.stop listener;
      Server.stop server)

(* An integer literal past [max_int] is a parse error like any other: the
   batch around it is decided, it alone is [Bad_request], and the
   connection keeps serving. *)
let test_int_overflow_in_pipelined_batch () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      Net.Client.with_connection addr (fun c ->
          (match
             Net.Client.query_batch_string c
               [
                 ("crm-app", "Q(x) :- Meetings(x, y)");
                 ("crm-app", "Q(x) :- Meetings(x, 99999999999999999999)");
                 ("calendar-app", "Q(x) :- Meetings(x, y)");
               ]
           with
          | [ Ok d1; Error { Errors.kind = Errors.Bad_request; detail }; Ok d2 ] ->
            check_bool "first query decided" true (Monitor.is_answered d1);
            check_bool "last query decided" true (Monitor.is_answered d2);
            Alcotest.(check string)
              "detail" "at offset 20: integer literal out of range" detail
          | rs ->
            Alcotest.failf "expected decision, bad-request, decision; got %s"
              (String.concat ", "
                 (List.map
                    (function Ok _ -> "decision" | Error e -> Errors.to_string e)
                    rs)));
          Net.Client.ping c);
      Net.Listener.stop listener;
      Server.stop server)

(* --- malformed input over the wire -------------------------------------- *)

let unix_path = function Net.Addr.Unix_socket p -> p | _ -> assert false

let raw_connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (unix_path addr));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  fd

let write_raw fd s =
  let b = Bytes.unsafe_of_string s in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Read to EOF and decode the first frame, if the server sent one. *)
let read_response fd =
  let buf = Buffer.create 256 in
  let scratch = Bytes.create 1024 in
  (try
     let rec loop () =
       match Unix.read fd scratch 0 1024 with
       | 0 -> ()
       | n ->
         Buffer.add_subbytes buf scratch 0 n;
         loop ()
     in
     loop ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
     ());
  match Frame.decode (Buffer.contents buf) with
  | Frame.Frame { payload; _ } -> (
    match Codec.decode_response payload with Ok r -> Some r | Error _ -> None)
  | _ -> None

let expect_wire_error what expected = function
  | Some (Codec.Error { Errors.kind; _ }) when kind = expected -> ()
  | Some (Codec.Error e) ->
    Alcotest.failf "%s: expected %s, got %s" what
      (Errors.kind_to_tag expected) (Errors.to_string e)
  | Some _ -> Alcotest.failf "%s: expected an error frame" what
  | None -> Alcotest.failf "%s: no response frame" what

(* Garbage, bit flips, oversized headers, torn streams, timeouts: every one
   is a typed error frame and a closed connection. The listener survives
   all of it, the monitor state never moves, and nothing is journaled. *)
let test_malformed_torture_over_wire () =
  with_tmp_base (fun base ->
      with_socket (fun addr ->
          let server = make_server ~journal:base () in
          Server.start server;
          let config =
            { Net.Listener.default_config with
              conn = { Net.Conn.read_deadline = 0.5; max_payload = 4096 } }
          in
          let listener = Net.Listener.create ~config ~server addr in
          let baseline = Server.snapshot server in
          let roundtrip bytes =
            let fd = raw_connect addr in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                write_raw fd bytes;
                (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
                read_response fd)
          in
          expect_wire_error "garbage bytes" Errors.Bad_magic
            (roundtrip "once upon a time, far from any framing discipline");
          expect_wire_error "wrong version" Errors.Bad_version (roundtrip "DCN1\x09rest");
          let valid =
            Frame.encode
              (Codec.encode_request
                 (Codec.Query { principal = "crm-app"; query = "Q(x) :- Meetings(x, y)"; trace = None }))
          in
          let flipped = Bytes.of_string valid in
          Bytes.set flipped (Frame.header_len + 2)
            (Char.chr (Char.code valid.[Frame.header_len + 2] lxor 0x01));
          expect_wire_error "bit flip in payload" Errors.Crc_mismatch
            (roundtrip (Bytes.to_string flipped));
          let oversized = Bytes.of_string (Frame.encode "x") in
          Bytes.set oversized 5 '\x7f';
          expect_wire_error "oversized header" Errors.Oversized
            (roundtrip (Bytes.to_string oversized));
          expect_wire_error "valid frame, truncated payload" Errors.Bad_payload
            (roundtrip (Frame.encode "q\x00\x00"));
          (let v1 = Bytes.of_string (Frame.encode "{\"op\":\"ping\"}") in
           Bytes.set v1 4 '\x01';
           expect_wire_error "version-1 frame" Errors.Bad_version
             (roundtrip (Bytes.to_string v1)));
          (* A silent partial frame trips the read deadline. *)
          (let fd = raw_connect addr in
           Fun.protect
             ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
             (fun () ->
               write_raw fd (String.sub valid 0 6);
               expect_wire_error "read deadline" Errors.Timeout (read_response fd)));
          (* Torn at every byte offset: close mid-frame wherever the cut
             lands; the server answers torn (or the peer raced the close)
             and never wavers. *)
          for cut = 1 to String.length valid - 1 do
            match roundtrip (String.sub valid 0 cut) with
            | Some (Codec.Error { Errors.kind = Errors.Torn; _ }) | None -> ()
            | Some (Codec.Error e) ->
              Alcotest.failf "cut at %d: expected torn, got %s" cut (Errors.to_string e)
            | Some _ -> Alcotest.failf "cut at %d: expected an error frame" cut
          done;
          (* The listener shrugged all of it off. *)
          Net.Client.with_connection addr (fun c -> Net.Client.ping c);
          let metrics = Server.metrics server in
          check_bool "typed errors were counted" true
            (Server.Metrics.count metrics Server.Metrics.Net_errors
            >= 5 + (String.length valid - 1));
          check_bool "monitor states never moved" true (Server.snapshot server = baseline);
          Net.Listener.stop listener;
          Server.stop server;
          for i = 0 to domains - 1 do
            check_bool "nothing journaled" true
              (String.equal "" (read_opt (Server.shard_journal base i)))
          done))

(* --- overload over the wire --------------------------------------------- *)

(* Saturate a one-slot mailbox before the workers start, then submit the
   overflowing query through the socket: the client receives the same
   fail-closed [Refused Overload], and monitor state and journal bytes are
   bit-identical to the in-process shed run. *)
let test_overload_over_wire_bit_identical () =
  let shed_run submit_overflow base =
    let server = make_server ~journal:base ~mailbox_capacity:1 ~cache_capacity:0 () in
    let q = "Q(x) :- Meetings(x, y)" in
    (* Fill calendar-app's shard mailbox deterministically (not started →
       nothing drains). *)
    let queued = Server.submit server ~principal:"calendar-app" (pq q) in
    let shed_decision = submit_overflow server ~principal:"calendar-app" q in
    (match shed_decision with
    | Monitor.Refused Guard.Overload -> ()
    | d -> Alcotest.failf "expected Refused Overload, got %a" Monitor.pp_decision d);
    Server.start server;
    check_bool "queued query still answered" true (Server.await queued = Monitor.Answered);
    Server.drain server;
    let snapshot = Server.snapshot server in
    let overloads = Server.Metrics.count (Server.metrics server) Server.Metrics.Overloaded in
    Server.stop server;
    (snapshot, overloads)
  in
  with_tmp_base (fun base_wire ->
      with_tmp_base (fun base_proc ->
          with_socket (fun addr ->
              let wire_result = ref None in
              let (snapshot_wire, overloads_wire) =
                shed_run
                  (fun server ~principal q ->
                    let listener = Net.Listener.create ~server addr in
                    let decision =
                      Net.Client.with_connection addr (fun c ->
                          match Net.Client.query_string c ~principal q with
                          | Ok d -> d
                          | Error e -> Alcotest.fail (Errors.to_string e))
                    in
                    wire_result := Some listener;
                    decision)
                  base_wire
              in
              Option.iter Net.Listener.stop !wire_result;
              let (snapshot_proc, overloads_proc) =
                shed_run
                  (fun server ~principal q -> Server.submit_sync server ~principal (pq q))
                  base_proc
              in
              check_int "one overload each" overloads_proc overloads_wire;
              check_bool "monitor states bit-identical" true (snapshot_wire = snapshot_proc);
              for i = 0 to domains - 1 do
                let seg = Printf.sprintf ".shard%d" i in
                check_bool "journal bytes bit-identical (shed never journaled)" true
                  (String.equal (read_opt (base_wire ^ seg)) (read_opt (base_proc ^ seg)))
              done)))

(* Concurrent hammer: several client domains against tiny mailboxes. Every
   round trip must come back as a decision (answered, refused, or overload
   — never a hang, never a transport error), and the journal the run leaves
   behind must recover to the live monitor state. *)
let test_concurrent_clients_under_overload () =
  with_tmp_base (fun base ->
      with_socket (fun addr ->
          let server = make_server ~journal:base ~mailbox_capacity:2 ~cache_capacity:0 () in
          Server.start server;
          let listener = Net.Listener.create ~server addr in
          let per_client = 25 in
          let clients =
            List.init 4 (fun i ->
                Domain.spawn (fun () ->
                    Net.Client.with_connection addr (fun c ->
                        let principal =
                          [| "calendar-app"; "crm-app"; "hr-app" |].(i mod 3)
                        in
                        let ok = ref 0 in
                        for _ = 1 to per_client do
                          match
                            Net.Client.query_string c ~principal "Q(x) :- Meetings(x, y)"
                          with
                          | Ok _ -> incr ok
                          | Error e -> Alcotest.fail (Errors.to_string e)
                        done;
                        !ok)))
          in
          let decided = List.fold_left (fun acc d -> acc + Domain.join d) 0 clients in
          check_int "every round trip produced a decision" (4 * per_client) decided;
          Net.Listener.stop listener;
          Server.drain server;
          let live = Server.snapshot server in
          Server.stop server;
          let fresh = make_server () in
          (match Server.recover fresh ~journal:base with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Disclosure.Service.recovery_error_to_string e));
          check_bool "journal recovers to the live state" true
            (Server.snapshot fresh = live);
          Server.stop fresh))

(* --- lifecycle: caps, shutdown, fault matrix ----------------------------- *)

let test_connection_cap_refuses_busy () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let config = { Net.Listener.default_config with max_connections = 1 } in
      let listener = Net.Listener.create ~config ~server addr in
      Net.Client.with_connection addr (fun c1 ->
          Net.Client.ping c1;
          (* c1 holds the only slot; the next connection is refused. *)
          let c2 = Net.Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Net.Client.close c2)
            (fun () ->
              match Net.Client.query_string c2 ~principal:"crm-app" "Q(x) :- Meetings(x, y)" with
              | Error { Errors.kind = Errors.Busy; _ } -> ()
              | Error e -> Alcotest.failf "expected busy, got %s" (Errors.to_string e)
              | Ok _ -> Alcotest.fail "over-cap connection must be refused"
              | exception Net.Client.Protocol_error _ ->
                (* The refusal frame can lose the race with the close. *) ()));
      let m = Server.metrics server in
      check_bool "rejecting counted" true (Server.Metrics.count m Server.Metrics.Net_rejected >= 1);
      (* The slot freed up: a new connection is accepted again. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec retry () =
        match Net.Client.with_connection addr Net.Client.ping with
        | () -> ()
        | exception _ when Unix.gettimeofday () < deadline ->
          Unix.sleepf 0.02;
          retry ()
      in
      retry ();
      Net.Listener.stop listener;
      Server.stop server)

(* The race behind the over-cap refusal, made deterministic: a bare
   listening socket accepts, sends (or not) a refusal frame and closes
   before the client writes a byte, so the client's write always hits a
   peer-closed socket. The client must answer with the refusal frame the
   server sent, or with a Protocol_error — never a raw Unix_error. *)
let test_write_after_server_close () =
  with_socket (fun addr ->
      let path = match addr with Net.Addr.Unix_socket p -> p | _ -> assert false in
      Sys.remove path;
      let listen_fd = Unix.socket ~cloexec:true (Net.Addr.domain addr) Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close listen_fd)
        (fun () ->
          Unix.bind listen_fd (Net.Addr.to_sockaddr addr);
          Unix.listen listen_fd 4;
          let closed_by_server refusal f =
            let c = Net.Client.connect addr in
            let fd, _ = Unix.accept ~cloexec:true listen_fd in
            Option.iter
              (fun e ->
                let frame = Frame.encode (Codec.encode_response (Codec.Error e)) in
                check_int "refusal frame sent whole" (String.length frame)
                  (Unix.write_substring fd frame 0 (String.length frame)))
              refusal;
            Unix.close fd;
            Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> f c)
          in
          let query c = Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)" in
          closed_by_server (Some (Errors.busy "connection cap of 1 reached")) (fun c ->
              match query c with
              | Error { Errors.kind = Errors.Busy; _ } -> ()
              | Error e -> Alcotest.failf "expected busy, got %s" (Errors.to_string e)
              | Ok _ -> Alcotest.fail "a refused connection cannot decide"
              | exception Net.Client.Protocol_error msg ->
                Alcotest.failf "the refusal frame was sent before the close, got %s" msg);
          closed_by_server None (fun c ->
              match query c with
              | _ -> Alcotest.fail "a connection closed in silence must fail"
              | exception Net.Client.Protocol_error _ -> ());
          closed_by_server None (fun c ->
              match
                Net.Client.query_batch_string c
                  (List.init 4 (fun _ -> ("crm-app", "Q(x) :- Meetings(x, y)")))
              with
              | _ -> Alcotest.fail "a connection closed in silence must fail"
              | exception Net.Client.Protocol_error _ -> ())))

let test_graceful_shutdown () =
  with_socket (fun addr ->
      let server = make_server () in
      Server.start server;
      let listener = Net.Listener.create ~server addr in
      let c = Net.Client.connect addr in
      Net.Client.ping c;
      Net.Listener.stop listener;
      Net.Listener.stop listener (* idempotent *);
      (* The live connection was half-closed: the next round trip fails as a
         transport error, not a hang. *)
      (match Net.Client.ping c with
      | () -> Alcotest.fail "connection must be gone after stop"
      | exception Net.Client.Protocol_error _ -> ()
      | exception Unix.Unix_error _ -> ());
      Net.Client.close c;
      (* The socket file is unlinked; new connections are refused cleanly. *)
      (match Net.Client.connect addr with
      | c' ->
        Net.Client.close c';
        Alcotest.fail "listener must not accept after stop"
      | exception Unix.Unix_error _ -> ());
      (* The server itself is untouched: the in-process path still works. *)
      check_bool "server survives listener shutdown" true
        (Server.submit_sync server ~principal:"crm-app" (pq "Q(x) :- Meetings(x, y)")
        = Monitor.Answered);
      Server.stop server)

(* A fault at any net stage costs at most the affected connection: the
   listener keeps accepting, the monitor state never moves, nothing is
   journaled by the faulted exchange. *)
let test_net_fault_matrix () =
  with_tmp_base (fun base ->
      with_socket (fun addr ->
          let server = make_server ~journal:base () in
          Server.start server;
          let listener = Net.Listener.create ~server addr in
          let journal_bytes () =
            List.init domains (fun i -> read_opt (Server.shard_journal base i))
          in
          List.iter
            (fun stage ->
              Server.drain server;
              let snapshot_before = Server.snapshot server in
              let journal_before = journal_bytes () in
              Faults.with_fault stage (Faults.Raise "injected net fault") (fun () ->
                  match
                    Net.Client.with_connection addr (fun c ->
                        Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)")
                  with
                  | Ok d ->
                    Alcotest.failf "fault at %s must not decide: %a" (Faults.stage_name stage)
                      Monitor.pp_decision d
                  | Error { Errors.kind = Errors.Fault; _ } -> ()
                  | Error e ->
                    Alcotest.failf "fault at %s: unexpected error %s" (Faults.stage_name stage)
                      (Errors.to_string e)
                  | exception Net.Client.Protocol_error _ -> ()
                  | exception Unix.Unix_error _ -> ());
              (* Accept- and decode-stage faults never reach the monitor or
                 the journal. *)
              Server.drain server;
              check_bool
                (Faults.stage_name stage ^ " fault leaves monitors untouched")
                true
                (Server.snapshot server = snapshot_before);
              check_bool
                (Faults.stage_name stage ^ " fault journals nothing")
                true
                (journal_bytes () = journal_before);
              (* Disarmed: the very next connection serves normally. *)
              match
                Net.Client.with_connection addr (fun c ->
                    Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)")
              with
              | Ok Monitor.Answered -> ()
              | Ok d -> Alcotest.failf "expected answered, got %a" Monitor.pp_decision d
              | Error e -> Alcotest.fail (Errors.to_string e))
            [ Faults.Net_accept; Faults.Net_decode ];
          (* Net_write: the decision happens, the response write fails; the
             connection dies alone and the listener lives. *)
          Faults.with_fault Faults.Net_write (Faults.Raise "injected write fault") (fun () ->
              match
                Net.Client.with_connection addr (fun c ->
                    Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)")
              with
              | Ok _ -> Alcotest.fail "write fault must not deliver a response"
              | Error _ -> ()
              | exception Net.Client.Protocol_error _ -> ()
              | exception Unix.Unix_error _ -> ());
          (* Still alive, still correct. *)
          (match
             Net.Client.with_connection addr (fun c ->
                 Net.Client.query_string c ~principal:"crm-app" "Q(x) :- Meetings(x, y)")
           with
          | Ok Monitor.Answered -> ()
          | _ -> Alcotest.fail "listener must survive the write fault");
          Net.Listener.stop listener;
          Server.stop server))

(* --- trace integration --------------------------------------------------- *)

let test_net_trace_spans () =
  with_socket (fun addr ->
      let trace = Obs.Trace.create ~tracks:(domains + 1) () in
      let server = make_server ~trace () in
      Server.start server;
      let listener = Net.Listener.create ~trace:(trace, domains) ~server addr in
      ignore (run_wire addr history);
      Net.Listener.stop listener;
      Server.drain server;
      Server.stop server;
      let net_spans =
        List.filter (fun s -> s.Obs.Trace.name = "net") (Obs.Trace.roots trace)
      in
      check_int "one net span per wire query" (List.length history) (List.length net_spans);
      check_bool "net spans live on the dedicated track" true
        (List.for_all (fun s -> s.Obs.Trace.track = domains) net_spans);
      check_bool "net spans carry the query text" true
        (List.for_all (fun s -> List.mem_assoc "query" s.Obs.Trace.attrs) net_spans);
      (* The shard-side spans are still there too, on their own tracks. *)
      let shard_spans =
        List.filter
          (fun s -> s.Obs.Trace.name = "query" && s.Obs.Trace.track < domains)
          (Obs.Trace.roots trace)
      in
      check_bool "shard spans coexist" true (shard_spans <> []);
      (* Both sides of a wire query spell its outcome with the journal's
         decision word, refusals included ("refused:policy", not "policy"). *)
      let outcomes spans =
        List.sort compare
          (List.filter_map (fun s -> List.assoc_opt "outcome" s.Obs.Trace.attrs) spans)
      in
      check_bool "a refused wire query" true
        (List.mem "refused:policy" (outcomes net_spans));
      Alcotest.(check (list string))
        "net and shard spans carry the same outcomes" (outcomes shard_spans)
        (outcomes net_spans))

(* --- budget deadline regression (satellite) ------------------------------ *)

(* Deadlines are armed and checked on the monotonic clock: a budget without
   a deadline never expires, a short deadline expires only once the
   monotonic clock actually passes it, and expiry surfaces as the same
   [Exhausted Deadline] the guard maps to a fail-closed refusal. *)
let test_budget_monotonic_deadline () =
  let no_deadline = Cq.Budget.create ~fuel:1_000_000 () in
  for _ = 1 to 10_000 do
    Cq.Budget.tick no_deadline
  done;
  Cq.Budget.check_deadline no_deadline;
  let b = Cq.Budget.create ~deadline:0.05 () in
  check_bool "not expired at birth" true
    (match Cq.Budget.check_deadline b with () -> true | exception _ -> false);
  Unix.sleepf 0.08;
  (match Cq.Budget.check_deadline b with
  | () -> Alcotest.fail "deadline must expire once the monotonic clock passes it"
  | exception Cq.Budget.Exhausted Cq.Budget.Deadline -> ());
  (* [burn] notices the deadline too (every stride ticks). *)
  let b2 = Cq.Budget.create ~deadline:0.05 () in
  Unix.sleepf 0.08;
  (match
     for _ = 1 to 10_000 do
       Cq.Budget.tick b2
     done
   with
  | () -> Alcotest.fail "burning past an expired deadline must raise"
  | exception Cq.Budget.Exhausted Cq.Budget.Deadline -> ());
  (* And the guard still maps it to a fail-closed refusal. *)
  let limits = Guard.limits ~deadline:0.01 () in
  match
    Guard.run limits (fun budget ->
        Unix.sleepf 0.05;
        Cq.Budget.check_deadline budget)
  with
  | Error (Guard.Resource Guard.Deadline) -> ()
  | Ok () -> Alcotest.fail "guard must refuse past the deadline"
  | Error r -> Alcotest.failf "expected a deadline refusal, got %a" Guard.pp_refusal r

let () =
  Alcotest.run "disclosure-net"
    [
      ( "frame",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn at every byte offset" `Quick test_frame_torn_every_offset;
          Alcotest.test_case "single-byte flip always detected" `Quick
            test_frame_flip_every_byte;
          Alcotest.test_case "oversized header rejected early" `Quick
            test_frame_oversized_rejected_early;
          Alcotest.test_case "decode is total (fuzz)" `Quick test_frame_fuzz_never_raises;
          Alcotest.test_case "version-1 frame is bad-version" `Quick
            test_frame_version_one_refused;
          Alcotest.test_case "crc32 slicing matches bytewise" `Quick test_crc32_slicing;
          Alcotest.test_case "flush survives an EINTR storm" `Quick
            test_flush_survives_eintr;
          Alcotest.test_case "reader: split at every byte boundary" `Quick
            test_reader_split_every_boundary;
          Alcotest.test_case "reader: window larger than its buffer" `Quick
            test_reader_window_larger_than_buffer;
          Alcotest.test_case "reader: EOF mid-frame is torn" `Quick test_reader_eof_mid_frame;
          Alcotest.test_case "reader: valid frames before a corrupt one" `Quick
            test_reader_corrupt_after_valid;
          Alcotest.test_case "reader: oversized from the header alone" `Quick
            test_reader_oversized_from_header;
          Alcotest.test_case "reader: read deadline" `Quick test_reader_deadline;
          Alcotest.test_case "Conn.serve writes the encoded frames" `Quick
            test_conn_wire_bytes;
          Alcotest.test_case "a raising handler costs one request" `Quick
            test_raising_handler_costs_one_request;
        ] );
      ( "codec",
        [
          Alcotest.test_case "error tags roundtrip" `Quick test_error_tags_roundtrip;
          Alcotest.test_case "request/response roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "malformed payloads are typed errors" `Quick
            test_codec_rejects_malformed;
          Alcotest.test_case "addresses parse" `Quick test_addr_parse;
        ] );
      ( "e2e",
        [
          Oracle.slice "wire ≡ in-process, bit-identical journal"
            ~pin:(fun c -> Oracle.fixed_batches { c with transport = Wire })
            ~pin_twin:(fun c -> { c with transport = In_process });
          Oracle.slice "pipelined client ≡ in-process under group commit"
            ~pin:(fun c ->
              Oracle.fixed_batches { c with transport = Pipelined; group_commit = true })
            ~pin_twin:(fun c -> { c with transport = In_process; group_commit = false });
          Alcotest.test_case "mixed pipelined requests keep positional order" `Quick
            test_pipelined_mixed_requests_ordered;
          Alcotest.test_case "pipelined group commit flushes at most once per decision" `Quick
            test_pipelined_group_commit_flushes;
          Alcotest.test_case "ping and stats over the wire" `Quick test_ping_stats_over_wire;
          Alcotest.test_case "semantic errors keep the connection" `Quick
            test_unknown_principal_keeps_connection;
          Alcotest.test_case "integer overflow in a pipelined batch is bad-request" `Quick
            test_int_overflow_in_pipelined_batch;
        ] );
      ( "torture",
        [
          Alcotest.test_case "malformed input never crashes or journals" `Quick
            test_malformed_torture_over_wire;
        ] );
      ( "overload",
        [
          Alcotest.test_case "overload over the wire ≡ in-process shed" `Quick
            test_overload_over_wire_bit_identical;
          Alcotest.test_case "concurrent clients under tiny mailboxes" `Quick
            test_concurrent_clients_under_overload;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "connection cap refuses busy" `Quick
            test_connection_cap_refuses_busy;
          Alcotest.test_case "write after the server closed" `Quick
            test_write_after_server_close;
          Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
          Alcotest.test_case "net fault matrix" `Quick test_net_fault_matrix;
          Alcotest.test_case "net spans on a dedicated track" `Quick test_net_trace_spans;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadlines ride the monotonic clock" `Quick
            test_budget_monotonic_deadline;
        ] );
    ]
