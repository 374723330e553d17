(** Canonical position-code encoding of tagged atoms.

    An atom's single-atom rewriting behaviour ({!Disclosure.Rewrite_single})
    depends only on the equivalence classes its terms induce over the
    atom's positions, the kind of each class, and its constant values —
    never on variable names. [encode] captures exactly that: one int code
    per position (kind tag in the low 2 bits, a dense first-occurrence
    class id above) plus the constant values in class order. Two atoms with
    equal encodings receive bit-identical labels from every view universe,
    which is what lets matcher programs, decision diagrams, and the
    per-atom label memo run over codes instead of atoms. *)

type t = {
  pred : string;
  codes : int array;
  consts : Relational.Value.t array;
}

val tag_const : int
val tag_dist : int
val tag_exist : int

val tag_const_new : int
(** Edge-key tag for a first-occurrence constant branched by view-constant
    equality; produced by {!Diagram}, never present in [codes]. *)

val code : tag:int -> cls:int -> int
val tag : int -> int
val cls : int -> int

val max_arity : int
(** Atoms wider than this are outside the compiled fragment; the artifact
    falls back to the interpreted labeler and counts the escape. *)

exception Outside_fragment

val encode_exn : Disclosure.Tagged.atom -> t
(** @raise Outside_fragment when the atom is wider than {!max_arity}. *)

val encode : Disclosure.Tagged.atom -> t option

val arity : t -> int

type key = int array * Relational.Value.t array

val memo_key : t -> key
(** Structural key (codes, constant values) for per-relation memo tables. *)

val hash : key -> int
(** Reads every code and every constant value. *)

(** The per-relation memo tables, hashed with {!hash}. *)
module Memo : Hashtbl.S with type key = key

val pp : Format.formatter -> t -> unit
