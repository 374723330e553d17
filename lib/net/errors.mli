(** Typed wire-protocol errors.

    Every way a connection can go wrong has a constructor here, and every
    error crossing the wire carries a stable one-token tag (the same
    discipline as {!Disclosure.Guard.refusal_to_tag}) plus a free-form
    human detail. The server never answers garbage with a crash or a
    journaled decision — it answers with one of these and, when the framing
    itself is suspect ({!fatal}), closes the connection. *)

type kind =
  | Bad_magic  (** Frame does not start with the 4-byte protocol magic. *)
  | Bad_version  (** Magic matched but the version byte is unknown. *)
  | Oversized  (** Declared payload length exceeds the receiver's limit. *)
  | Crc_mismatch  (** Payload bytes do not match the header CRC-32. *)
  | Torn  (** Peer closed mid-frame — a prefix of a frame was read. *)
  | Timeout  (** Per-connection read deadline expired. *)
  | Bad_payload
      (** Payload is not a well-formed {!Codec} document: a field is cut
          short, a flag byte is out of range, or bytes follow the last
          field. *)
  | Bad_request
      (** A well-formed payload that is not a request the server serves:
          an unknown tag, a negative integer field, a pull with no
          replication source. *)
  | Unknown_principal  (** Query for a principal the server never registered. *)
  | Busy  (** Connection cap reached; try again later. *)
  | Shutting_down  (** Server is draining; no new work accepted. *)
  | Fault  (** Injected or internal failure — fail closed. *)

type t = {
  kind : kind;
  detail : string;
}

val v : kind -> string -> t

(** {1 Smart constructors} *)

val bad_magic : t
val bad_version : int -> t
val oversized : length:int -> max:int -> t
val crc_mismatch : expected:int -> actual:int -> t
val torn : string -> t
val timeout : seconds:float -> t
val bad_payload : string -> t
val bad_request : string -> t
val unknown_principal : string -> t
val busy : string -> t
val shutting_down : string -> t
val fault : string -> t

(** {1 Wire tags} *)

val kind_to_tag : kind -> string
(** Stable wire token, e.g. ["crc-mismatch"]. *)

val kind_of_tag : string -> kind option
(** Exact inverse of {!kind_to_tag}; [None] for unknown tags. *)

val fatal : t -> bool
(** [true] when the error invalidates the connection's framing or payload
    (garbage, torn, oversized, CRC, malformed payload, timeout, shutdown,
    fault): the server sends the error frame and closes. Semantic errors on intact framing
    ([Bad_request], [Unknown_principal]) keep the connection open. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
