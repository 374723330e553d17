(** Self-delimiting wire framing, and the framed stream both ends of a
    connection use.

    A frame is a 13-byte header — magic ["DCN1"], a version byte, the
    payload length and the payload's CRC-32 (both unsigned 32-bit
    big-endian) — followed by the payload bytes. The CRC uses the same
    zlib-polynomial {!Disclosure.Journal.crc32} as the J2 journal codec,
    and the decoder makes the same torn-versus-corrupt distinction: an
    incomplete frame asks for more bytes, a provably damaged one returns a
    typed {!Errors.t}. Decoding never raises on any input. {!Conn},
    {!Client} and {!Listener} read only through a {!reader} and write only
    through a {!writer}. *)

val magic : string
(** ["DCN1"] — 4 bytes. *)

val version : int
(** Current protocol version, [2]: {!Codec}'s binary payloads. Version [1]
    carried JSON payloads; a version-1 frame is refused with
    [Bad_version]. *)

val header_len : int
(** [13]. *)

val default_max_payload : int
(** 1 MiB — the server's request cap unless [serve --max-payload] says
    otherwise. *)

val encode : string -> string
(** [encode payload] is the full frame: header + payload. *)

(** Decoder verdict on a buffer prefix. *)
type progress =
  | Frame of {
      payload : string;  (** Verified payload (CRC checked). *)
      consumed : int;  (** Bytes of the buffer this frame occupied. *)
    }
  | Need_more of int
      (** The buffer holds a valid frame {e prefix}; at least this many
          more bytes are needed. Never [Need_more 0]. *)
  | Corrupt of Errors.t
      (** The buffer can never extend to a valid frame: bad magic or
          version, oversized declared length, or CRC mismatch. *)

val decode : ?max_payload:int -> string -> progress
(** [decode buf] examines [buf] from offset 0. Corruption is reported on
    the shortest prefix that proves it (a wrong magic byte is [Corrupt]
    even with one byte buffered; a declared length above [max_payload],
    default {!default_max_payload}, as soon as the header is in). *)

type reader
(** A growable receive window that [read(2)] fills directly and frames are
    decoded from in place; only a verified payload is copied out. It grows
    only with bytes that arrived, so a hostile length header cannot
    balloon memory whatever the cap. *)

val reader : ?max_payload:int -> Unix.file_descr -> reader
(** [max_payload] (default {!default_max_payload}) caps each payload. *)

val next : reader -> (string option, Errors.t) result
(** The next complete frame received, without I/O: [Ok None] when the
    window holds at most a frame prefix, [Error] on {!decode}'s [Corrupt]
    verdict at the cursor. Frames before a corrupt one come out first. *)

val fill : reader -> (int, Errors.t) result
(** Once {!next} answers [Ok None]: one [read(2)] asking for at least
    4 KiB, retried on [EINTR]. [Ok 0] is a close or reset between frames;
    [Error] is [Torn] for one mid-frame, or [Timeout] when the socket's
    [SO_RCVTIMEO] expired.
    @raise Unix.Unix_error on any other read failure. *)

val reads : reader -> int
(** The [read(2)] calls {!fill} has made on this reader. *)

type writer
(** A reused send buffer: frames are appended, header and payload, and
    leave in one write. *)

val writer : Unix.file_descr -> writer

val add : writer -> string -> unit
(** Append one frame carrying the payload. *)

val flush : writer -> int
(** Write every appended byte, return how many, and empty the buffer (also
    when the write fails). Resumes short writes, retries [EINTR], and waits
    for writability on [EAGAIN]; built on [Unix.single_write], so no byte
    is written twice or given up on.
    @raise Unix.Unix_error on real failures ([EPIPE], [ECONNRESET], …). *)

val writes : writer -> int
(** The [write(2)] calls {!flush} has made on this writer. *)
