(** The versioned on-disk record format behind {!Service}'s decision journal
    and checkpoints (DESIGN.md §8).

    Version 2 frames each record as one line:

    {v J2 <crc32:8 hex> <len:decimal> <payload>\n v}

    where [payload] is the record's fields joined by TAB after
    backslash-escaping ([\\], [\t], [\n], [\r]), [len] is the payload's byte
    length and the CRC-32 (the zlib/PNG polynomial) is computed over the
    payload bytes. Escaping means a field can contain any byte — in
    particular a hostile principal name containing separators cannot forge
    record boundaries. The trailing newline is the commit point: a record
    counts only once its newline is on disk.

    The framing lets a reader distinguish the two ways a journal can be
    damaged:

    - a {e torn tail} — the file ends mid-record, with no trailing newline —
      is exactly what a crash between [write] and [flush]/sync produces. It
      is reported as {!torn} alongside the records that precede it and is a
      caller-policy decision (the service tolerates it in the active
      segment);
    - {e anything else} — a complete line with a bad magic, a length that
      disagrees with the payload, a CRC mismatch (CRC-32 catches every burst
      error up to 32 bits, hence every single-byte corruption), an invalid
      escape — cannot be explained by truncation and is returned as
      {!corrupt}, with the byte offset of the offending record. *)

val escape : string -> string
(** Backslash-escape [\\], TAB, LF and CR. Identity on strings without
    them. *)

val unescape : string -> (string, string) result
(** Inverse of {!escape}; [Error] on a dangling backslash or an unknown
    escape sequence. *)

val crc32 : string -> int
(** CRC-32 (reflected, polynomial [0xEDB88320], as in zlib/PNG) of the whole
    string, in [0, 0xFFFFFFFF]. *)

val encode : string list -> string
(** Frame one record (with its trailing newline) from its fields. *)

val add_record : Buffer.t -> string list -> unit
(** [add_record buf fields] appends [encode fields] to [buf]. *)

val add_payload : Buffer.t -> string -> unit
(** Frame an already-escaped, TAB-joined payload into [buf]: [add_record buf
    fields] is [add_payload buf] of the escaped fields joined by TAB. The
    checkpoint writer uses it to frame records whose field suffix it
    escaped once for many principals. *)

type record = {
  offset : int;  (** Byte offset of the record's first byte in the file. *)
  fields : string list;  (** Unescaped fields. *)
}

type torn = {
  torn_offset : int;  (** Byte offset where the torn tail begins. *)
  torn_reason : string;
}

type corrupt = {
  corrupt_offset : int;
  corrupt_reason : string;
}

val parse : string -> (record list * torn option, corrupt) result
(** Parse a whole file image. [Ok (records, None)] for a clean file,
    [Ok (records, Some torn)] when the file ends in a partial record
    (truncation damage), [Error corrupt] on damage truncation cannot
    explain. An empty string is [Ok ([], None)]. *)

val read_file : string -> (record list * torn option, corrupt) result
(** {!parse} of the file's contents. @raise Sys_error as [open_in] does. *)

val is_v2_file : string -> bool
(** Does the file's first line carry a complete, well-formed v2 header
    (magic, 8 hex CRC digits, space, decimal length, space)? The magic
    alone would misroute a legacy journal whose first principal begins with
    ["J2 "]. [false] also on an empty or unreadable file, or a first record
    torn inside its header — the legacy parser reaches the same verdict for
    those (torn final line, or fail closed mid-file). Used to route legacy
    TSV journals to the old parser. *)
