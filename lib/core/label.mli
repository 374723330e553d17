(** Compressed disclosure labels (Section 6.1).

    The label of a single-atom query [V] is stored as its [ℓ⁺] set — all
    generating-set views that reveal at least as much as [V] — packed into one
    OCaml [int]: the base relation's id in the high bits and a view bit mask
    in the low 31 bits. Label comparison is then a superset test on masks:

    [ℓ(V) ⪯ ℓ(V') ⟺ ℓ⁺(V) ⊇ ℓ⁺(V')]

    A mask of zero means no security view can answer the atom — the label is
    ⊤ and lies above every other label. A multi-atom query's label is an array
    of atom labels, one per dissected atom. *)

type atom_label = private int

type t = atom_label array

val mask_bits : int
(** Number of mask bits (31). *)

val make_atom : rel_id:int -> mask:int -> atom_label
(** @raise Invalid_argument if the mask overflows {!mask_bits} bits or either
    argument is negative. *)

val top_atom : atom_label
(** The ⊤ atom label (empty [ℓ⁺]). *)

val rel : atom_label -> int

val mask : atom_label -> int

val is_top_atom : atom_label -> bool

val atom_leq : atom_label -> atom_label -> bool
(** [ℓ(V) ⪯ ℓ(V')]: superset test on [ℓ⁺] masks; everything is below ⊤. *)

val leq : t -> t -> bool
(** Multi-atom comparison, [O(r·s)]: every atom label of the left query must
    be below some atom label of the right one. *)

val equal : t -> t -> bool
(** Mutual {!leq}. *)

val is_top : t -> bool
(** Some atom is unanswerable by any security view. *)

val views_of_atom : Registry.t -> atom_label -> Sview.t list
(** Decodes an atom's [ℓ⁺] set. *)

val atoms : t -> atom_label list

val pp : Registry.t -> Format.formatter -> t -> unit
(** Human-readable form: one [{V3, V6}]-style set per atom, [⊤] for top. *)

val encode : t -> string
(** Compact, registry-independent wire format: semicolon-separated
    [rel:mask] pairs in hex, e.g. ["0:1a;3:4"]. Decoding requires the same
    registry (relation ids and bit assignments) to be meaningful — persist
    labels only alongside a stable view registration order. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; [Ok [||]] on the empty string. *)
