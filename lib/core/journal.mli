(** The versioned on-disk record format behind {!Service}'s decision journal
    and checkpoints, the layout of the files that hold them, and the one
    append-only {!Writer} they are written through (DESIGN.md §8).

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

(** {1 The journal family on disk}

    A journal [base] owns a family of files: the active segment [base], the
    sealed segments [base.<n>] (n ≥ 1, in rotation order), the checkpoint
    [base.ckpt] and the tiered store's spill file [base.spill]. A file is
    staged under {!tmp_path} before an atomic rename. This module is the
    only place that knows those names. *)

val tmp_path : string -> string
val segment_path : string -> int -> string
val ckpt_path : string -> string
val spill_path : string -> string

val file_size : string -> int
(** [0] for a missing file. *)

val sealed_segments : string -> (int * string) list
(** [(n, path)] sorted by [n]. Only names rotation writes count: the suffix
    must be exactly [string_of_int n], so [base.01] or [base.0x1] are not
    segments. *)

val ckpt_header : covers:int -> count:int -> string list
(** The checkpoint's header fields [ckpt 2 <covers> <count>]: segments up
    to [covers] are folded in, and [count] principal records follow. *)

val parse_ckpt_header : string list -> (int * int, string) result
(** Inverse of {!ckpt_header}; both numbers non-negative. *)

val next_segment : string -> int
(** The index the next rotation seals: one above both the newest sealed
    segment and the checkpoint's coverage bound. *)

val resume_cursor : string -> int * int
(** [(next_segment base, file_size base)], or [(0, 0)] for an empty family
    (nothing sealed, covered or appended). *)

val install_checkpoint : string -> (out_channel -> unit) -> unit
(** Replace [base.ckpt] atomically: [write] fills the staging file, which
    is flushed, [fsync]ed and renamed into place. The [Checkpoint] fault
    stage trips before the staging file is opened, [Ckpt_rename] before the
    rename. On any failure the staging file is removed and the exception
    re-raised. *)

val family_exists : string -> bool
(** An active segment, a checkpoint or a sealed segment exists. *)

val remove_family : string -> unit
(** Delete every file of the family, staging files included. *)

val truncate_file : string -> int -> unit
(** Cut a file that no {!Writer} holds to [size] bytes. *)

val seal_active : string -> unit
(** Seal [base] as [base.<next_segment base>] when no {!Writer} holds it. *)

(** {1 The append-only writer}

    The active segment, a follower's mirror of it and the tiered store's
    spill file are all written through one {!Writer.t}. It holds the
    {e committed frontier}: every byte below it is a whole, flushed record.
    A write is "{!Writer.append}; {!Writer.commit}", a group-commit batch
    "append … append; commit". A failed append {e poisons} the writer
    until {!Writer.rollback} cuts the file back to the frontier; a failed
    rollback closes the writer for good, so nothing is ever appended after
    garbage. *)

module Writer : sig
  type t

  val create : ?stage:Faults.stage -> ?segment:int -> string -> t
  (** Open [path] for appending, creating it. The frontier starts at the
      file's size. {!commit} trips [stage] between buffer and flush; {!seal}
      names the file [segment] (default [0]: a file that is never
      sealed). *)

  val path : t -> string

  val position : t -> int * int
  (** [(segment, committed)]: racy but memory-safe from another domain,
      and never torn — the pair is replaced as one value, so a reader never
      sees a new segment's size under the old segment's number. A
      concurrent reader may see a not-yet-committed suffix, which parses as
      a torn tail. *)

  val committed : t -> int

  val pending : t -> int
  (** Bytes appended since the last commit. *)

  val poisoned : t -> string option

  val is_open : t -> bool
  (** [false] once closed, or after a failed rollback. *)

  val append : t -> string -> unit
  (** Buffer without flushing; a failure poisons the writer.
      @raise Sys_error when closed, [Failure] when poisoned. *)

  val commit : t -> unit
  (** Trip the stage, flush, and advance the frontier over the pending
      bytes. On failure, {!rollback} and re-raise. *)

  val write : t -> string -> unit
  (** [append] then [commit], rolling back on any failure. *)

  val rollback : t -> unit
  (** Drop whatever is pending or poisoned: close, truncate to the
      frontier, reopen. Never raises; a failure is logged and closes the
      writer. *)

  val truncate : t -> int -> unit
  (** Cut the file to [size] and make that the frontier. *)

  val seal : t -> unit
  (** Rename the file to [segment_path path segment], advance [segment],
      and open a fresh file under [path]. On failure, reopen [path] and
      re-raise. *)

  val replace : t -> (out_channel -> 'a) -> 'a
  (** Rewrite the file whole: [fill] writes [tmp_path path], which is
      renamed into place (no fsync) and reopened. On failure the staging
      file is removed and the old file and writer are untouched. *)

  val close : t -> unit
  (** Idempotent. *)
end
