type kind =
  | Bad_magic
  | Bad_version
  | Oversized
  | Crc_mismatch
  | Torn
  | Timeout
  | Bad_payload
  | Bad_request
  | Unknown_principal
  | Busy
  | Shutting_down
  | Fault

type t = {
  kind : kind;
  detail : string;
}

let v kind detail = { kind; detail }

let bad_magic = v Bad_magic "frame does not start with the protocol magic"

let bad_version got =
  v Bad_version (Printf.sprintf "unsupported protocol version %d" got)

let oversized ~length ~max =
  v Oversized (Printf.sprintf "frame payload of %d bytes exceeds the %d-byte limit" length max)

let crc_mismatch ~expected ~actual =
  v Crc_mismatch (Printf.sprintf "payload CRC mismatch (header %08x, computed %08x)" expected actual)

let torn detail = v Torn detail

let timeout ~seconds =
  v Timeout (Printf.sprintf "no complete frame within the %.3fs read deadline" seconds)

let bad_payload detail = v Bad_payload detail

let bad_request detail = v Bad_request detail

let unknown_principal p = v Unknown_principal p

let busy detail = v Busy detail

let shutting_down detail = v Shutting_down detail

let fault detail = v Fault detail

(* Stable one-token wire encoding, same discipline as
   [Disclosure.Guard.refusal_to_tag]: the tag survives the round trip
   exactly, the free-form detail rides alongside it. *)
let kind_to_tag = function
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Oversized -> "oversized"
  | Crc_mismatch -> "crc-mismatch"
  | Torn -> "torn"
  | Timeout -> "timeout"
  | Bad_payload -> "bad-payload"
  | Bad_request -> "bad-request"
  | Unknown_principal -> "unknown-principal"
  | Busy -> "busy"
  | Shutting_down -> "shutting-down"
  | Fault -> "fault"

let kind_of_tag = function
  | "bad-magic" -> Some Bad_magic
  | "bad-version" -> Some Bad_version
  | "oversized" -> Some Oversized
  | "crc-mismatch" -> Some Crc_mismatch
  | "torn" -> Some Torn
  | "timeout" -> Some Timeout
  | "bad-payload" -> Some Bad_payload
  | "bad-request" -> Some Bad_request
  | "unknown-principal" -> Some Unknown_principal
  | "busy" -> Some Busy
  | "shutting-down" -> Some Shutting_down
  | "fault" -> Some Fault
  | _ -> None

(* Which errors end the connection. A frame-level error means the byte
   stream can no longer be trusted to be frame-aligned; a timeout means the
   peer has gone quiet holding a partial frame; a payload whose fields
   are cut short or run past its last field was written by a broken
   encoder. An unknown request tag ([Bad_request]) and the semantic errors
   arrive on intact framing from a working peer, so the connection
   survives them. *)
let fatal t =
  match t.kind with
  | Bad_magic | Bad_version | Oversized | Crc_mismatch | Torn | Timeout | Bad_payload
  | Shutting_down | Busy | Fault ->
    true
  | Bad_request | Unknown_principal -> false

let to_string t = Printf.sprintf "%s: %s" (kind_to_tag t.kind) t.detail

let pp ppf t = Format.pp_print_string ppf (to_string t)
