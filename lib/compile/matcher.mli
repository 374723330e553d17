(** View atoms compiled to flat instruction programs over pattern codes.

    [run (compile v) (Disclosure.Pattern.encode_exn q)] equals
    [Disclosure.Rewrite_single.leq_atom q v] for every well-formed view
    atom [v] and query atom [q] inside the compiled fragment — the same
    theta-consistency, existential-pairing, and cover rules, executed as
    int compares against dense scratch slots instead of hashtable probes.
    The equivalence is enforced by a qcheck property in test_compile. *)

type t

val compile : Disclosure.Tagged.atom -> t

val run : t -> Disclosure.Pattern.t -> bool
