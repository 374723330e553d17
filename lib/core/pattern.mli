(** Canonical position-code encoding of single-atom queries.

    An atom's single-atom rewriting behaviour ({!Rewrite_single}) depends
    only on the equivalence classes its terms induce over the atom's
    positions, the kind of each class, and its constant values — never on
    variable names. A pattern captures exactly that: one int code per
    position (kind tag in the low 2 bits, a dense first-occurrence class id
    per kind above) plus the constant values in class order. Two atoms with
    equal patterns receive bit-identical labels from every view universe,
    which is what lets matcher programs and the per-atom label memo run
    over codes instead of atoms.

    {!Dissect}'s split numbers every atom of the folded query straight from
    the fold's int codes ({!number}); {!encode_exn} numbers a {!Tagged}
    atom with the same function. *)

type t = {
  pred : string;
  codes : int array;
  consts : Relational.Value.t array;
}

val tag_const : int
val tag_dist : int
val tag_exist : int

val code : tag:int -> cls:int -> int
val tag : int -> int
val cls : int -> int

val max_arity : int
(** Atoms wider than this are outside the compiled fragment; the artifact
    falls back to the interpreted labeler and counts the escape. *)

type scratch

val scratch : int -> scratch
(** Per-variable scratch for {!number}, for variable ids below the given
    count; one serves every atom of a query. *)

val number :
  scratch ->
  pred:string ->
  dist:(int -> bool) ->
  value:(int -> Relational.Value.t) ->
  int array ->
  t
(** The class numbering. The array codes an atom's terms as
    [Cq.Minimize.coded] does: a variable id [>= 0], or [lnot] a constant
    id, two codes equal iff their terms are. [dist x] is whether variable
    [x] is distinguished, [value k] the value of constant [k]. No arity
    bound is applied. *)

exception Outside_fragment

val encode_exn : Tagged.atom -> t
(** {!number} over the atom's terms.
    @raise Outside_fragment when the atom is wider than {!max_arity}. *)

val encode : Tagged.atom -> t option

val arity : t -> int

val equal : t -> t -> bool
(** Same relation and same pattern: for two atoms, iso-equivalence
    ({!Tagged.iso_equivalent}). *)

type key = int array * Relational.Value.t array

val memo_key : t -> key
(** Structural key (codes, constant values) for per-relation memo tables. *)

val hash : key -> int
(** Reads every code and every constant value. *)

(** The per-relation memo tables, hashed with {!hash}. *)
module Memo : Hashtbl.S with type key = key

val pp : Format.formatter -> t -> unit
