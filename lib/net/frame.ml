let magic = "DCN1"
let version = 2
let header_len = 13
let default_max_payload = 1 lsl 20

(* Header layout (13 bytes, all integers big-endian):
     bytes 0..3   magic "DCN1"
     byte  4      version (0x02; 0x01 was the JSON-payload protocol)
     bytes 5..8   payload length, unsigned 32-bit
     bytes 9..12  CRC-32 of the payload bytes (Disclosure.Journal.crc32)
   The payload follows immediately; frames are self-delimiting, so a
   stream of frames needs no separators and a reader can always tell a
   torn tail from a corrupt record — the same discipline as the J2
   journal codec. *)

let get_u32_be b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

(* Write [payload]'s whole frame into [b] at [off]. *)
let put b off payload =
  let len = String.length payload in
  Bytes.blit_string magic 0 b off 4;
  Bytes.set_uint8 b (off + 4) version;
  Bytes.set_int32_be b (off + 5) (Int32.of_int len);
  Bytes.set_int32_be b (off + 9) (Int32.of_int (Disclosure.Journal.crc32 payload));
  Bytes.blit_string payload 0 b (off + header_len) len

let encode payload =
  let b = Bytes.create (header_len + String.length payload) in
  put b 0 payload;
  Bytes.unsafe_to_string b

type progress =
  | Frame of {
      payload : string;
      consumed : int;
    }
  | Need_more of int
  | Corrupt of Errors.t

(* The one decoder: the verdict on the [len] bytes of [b] from [off]. Only
   a complete, verified frame's payload is copied out. *)
let parse ~max_payload b ~off ~len =
  (* Reject garbage on the shortest prefix that proves it: a wrong byte in
     the magic or version is corrupt even if the header is incomplete. *)
  let magic_avail = min len 4 in
  let rec magic_ok i =
    i >= magic_avail || (Bytes.get b (off + i) = magic.[i] && magic_ok (i + 1))
  in
  if not (magic_ok 0) then Corrupt Errors.bad_magic
  else if len >= 5 && Bytes.get_uint8 b (off + 4) <> version then
    Corrupt (Errors.bad_version (Bytes.get_uint8 b (off + 4)))
  else if len < header_len then Need_more (header_len - len)
  else
    let payload_len = get_u32_be b (off + 5) in
    if payload_len > max_payload then
      Corrupt (Errors.oversized ~length:payload_len ~max:max_payload)
    else
      let total = header_len + payload_len in
      if len < total then Need_more (total - len)
      else
        let payload = Bytes.sub_string b (off + header_len) payload_len in
        let expected = get_u32_be b (off + 9) in
        let actual = Disclosure.Journal.crc32 payload in
        if expected <> actual then Corrupt (Errors.crc_mismatch ~expected ~actual)
        else Frame { payload; consumed = total }

let decode ?(max_payload = default_max_payload) buf =
  parse ~max_payload (Bytes.unsafe_of_string buf) ~off:0 ~len:(String.length buf)

(* --- the framed stream ----------------------------------------------------- *)

let chunk = 4096

type reader = {
  fd : Unix.file_descr;
  max_payload : int;
  mutable window : Bytes.t;
  mutable start : int;  (** First byte not yet consumed as a frame. *)
  mutable stop : int;  (** End of the bytes received. *)
  mutable reads : int;  (** read(2) calls made. *)
}

let reader ?(max_payload = default_max_payload) fd =
  { fd; max_payload; window = Bytes.create chunk; start = 0; stop = 0; reads = 0 }

let reads r = r.reads

let next r =
  match parse ~max_payload:r.max_payload r.window ~off:r.start ~len:(r.stop - r.start) with
  | Frame { payload; consumed } ->
    r.start <- r.start + consumed;
    Ok (Some payload)
  | Need_more _ -> Ok None
  | Corrupt e -> Error e

(* The one compaction rule: a read needs [chunk] free bytes at the tail.
   When fewer are left, the unconsumed bytes (callers drain every complete
   frame first, so at most one frame prefix) slide to the front, and the
   window doubles until that leaves room enough. *)
let rec fill r =
  let live = r.stop - r.start in
  if Bytes.length r.window - r.stop < chunk then begin
    let rec fit size = if size - live >= chunk then size else fit (2 * size) in
    let size = fit (Bytes.length r.window) in
    let dst = if size = Bytes.length r.window then r.window else Bytes.create size in
    Bytes.blit r.window r.start dst 0 live;
    r.window <- dst;
    r.start <- 0;
    r.stop <- live
  end;
  let closed how =
    if live = 0 then Ok 0
    else Error (Errors.torn (Printf.sprintf "%s with %d buffered bytes mid-frame" how live))
  in
  r.reads <- r.reads + 1;
  match Unix.read r.fd r.window r.stop (Bytes.length r.window - r.stop) with
  | 0 -> closed "peer closed"
  | n ->
    r.stop <- r.stop + n;
    Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* The deadline that expired is the socket's own receive timeout. *)
    Error (Errors.timeout ~seconds:(Unix.getsockopt_float r.fd Unix.SO_RCVTIMEO))
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    closed "connection reset"

type writer = {
  out_fd : Unix.file_descr;
  mutable out : Bytes.t;
  mutable pending : int;  (** Bytes of [out] not yet written. *)
  mutable writes : int;  (** write(2) calls made. *)
}

let writer fd = { out_fd = fd; out = Bytes.create chunk; pending = 0; writes = 0 }

let writes w = w.writes

let add w payload =
  let need = w.pending + header_len + String.length payload in
  if need > Bytes.length w.out then begin
    let out = Bytes.create (max need (2 * Bytes.length w.out)) in
    Bytes.blit w.out 0 out 0 w.pending;
    w.out <- out
  end;
  put w.out w.pending payload;
  w.pending <- need

(* A write on a socket can return short, be interrupted by a signal
   (EINTR), or report a momentarily full send buffer (EAGAIN/EWOULDBLOCK —
   a send timeout or a nonblocking descriptor). All three must mean "keep
   writing from where we stopped": anything else tears a frame mid-stream
   and the peer sees CRC garbage.

   [Unix.single_write], not [Unix.write]: [Unix.write] loops over internal
   16 KiB chunks and raises EINTR even after earlier chunks reached the
   kernel, losing the count — a retry from the saved offset then resends
   those bytes and the peer sees a duplicated, corrupt stream.
   [single_write] makes exactly one write(2) syscall, so EINTR always
   means "nothing was written this call" and the offset stays exact. *)
let flush w =
  let n = w.pending in
  w.pending <- 0;
  let off = ref 0 in
  while !off < n do
    w.writes <- w.writes + 1;
    match Unix.single_write w.out_fd w.out !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* Wait for the kernel to drain the send buffer, then retry. The
         select timeout only bounds this one wait — the loop never gives
         up on its own; a dead peer surfaces as EPIPE/ECONNRESET from the
         retried write, not as a silent partial frame. *)
      (try ignore (Unix.select [] [ w.out_fd ] [] 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ())
  done;
  n
