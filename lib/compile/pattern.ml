(* Canonical position-code encoding of a tagged atom.

   The single-atom rewriting check (Rewrite_single.check) looks at a query
   atom only through (a) the equivalence classes its terms induce over the
   atom's positions — two positions carry rw-equal terms iff they hold the
   same variable, or constants that are value-equal — (b) the kind
   (distinguished / existential / constant) of each class, and (c) the
   values of its constants, compared against the view's constants. Nothing
   else: variable *names* never reach the check. So an atom can be encoded
   as one int code per position — kind tag plus a class id numbered by
   first occurrence — plus a side table of constant values, and two atoms
   with equal encodings are indistinguishable to every view. That encoding
   is the compiled fragment's alphabet: matcher programs run over codes,
   and the per-atom label memo keys on them. *)

module Value = Relational.Value
module Tagged = Disclosure.Tagged

(* Tag in the low 2 bits, class id above. Class ids are dense and numbered
   in order of first occurrence per kind, so the encoding is invariant
   under variable renaming (exactly like Tagged.canonicalize, but
   kind-separated and integer-coded). *)
let tag_const = 0

let tag_dist = 1

let tag_exist = 2

let code ~tag ~cls = (cls lsl 2) lor tag

let tag c = c land 3

let cls c = c lsr 2

(* Positions beyond this arity do not get compiled: the fallback to the
   interpreted labeler (counted, never silent) covers them. The bound is
   far above every schema in the tree (the widest Facebook relation,
   User, has 34 columns); it exists so the compiled fragment has an
   honest, testable boundary. *)
let max_arity = 64

type t = {
  pred : string;
  codes : int array;
  consts : Value.t array; (* constant class id -> value, first-occurrence order *)
}

exception Outside_fragment

(* Two positions share a class iff they hold the same term. A position is
   classed by scanning the earlier ones for its term: atoms are at most
   [max_arity] wide, and the scan allocates nothing, where per-kind name
   tables cost two allocations and a hash per variable. *)
let same_term (s : Tagged.term) (t : Tagged.term) =
  match s, t with
  | Tagged.Var (x, k), Tagged.Var (y, k') -> Tagged.kind_equal k k' && String.equal x y
  | Tagged.Const u, Tagged.Const v -> Value.equal u v
  | Tagged.Var _, Tagged.Const _ | Tagged.Const _, Tagged.Var _ -> false

let encode_exn (a : Tagged.atom) =
  let args = Array.of_list a.Tagged.args in
  let arity = Array.length args in
  if arity > max_arity then raise Outside_fragment;
  let codes = Array.make arity 0 in
  let n_dist = ref 0 and n_exist = ref 0 and consts = ref [] and n_consts = ref 0 in
  let fresh n =
    let c = !n in
    incr n;
    c
  in
  for i = 0 to arity - 1 do
    let j = ref 0 in
    while !j < i && not (same_term args.(!j) args.(i)) do
      incr j
    done;
    codes.(i) <-
      (if !j < i then codes.(!j)
       else
         match args.(i) with
         | Tagged.Const v ->
           consts := v :: !consts;
           code ~tag:tag_const ~cls:(fresh n_consts)
         | Tagged.Var (_, Tagged.Distinguished) -> code ~tag:tag_dist ~cls:(fresh n_dist)
         | Tagged.Var (_, Tagged.Existential) -> code ~tag:tag_exist ~cls:(fresh n_exist))
  done;
  { pred = a.Tagged.pred; codes; consts = Array.of_list (List.rev !consts) }

let encode a = match encode_exn a with p -> Some p | exception Outside_fragment -> None

let arity t = Array.length t.codes

(* Memo tables are per relation group, so the relation is implicit in a
   memo key: codes and constant values. Polymorphic equality is exact on
   this flat data; the hash reads every code and every constant, where the
   generic [Hashtbl.hash] stops after a few values and wide relations would
   share a handful of hash values. *)
type key = int array * Value.t array

let memo_key t = (t.codes, t.consts)

let hash ((codes, consts) : key) =
  let h = Array.fold_left (fun h c -> (h * 31) + c) 0 codes in
  Array.fold_left (fun h v -> (h * 31) + Value.hash v) h consts

module Memo = Hashtbl.Make (struct
  type t = key

  let equal (a : t) b = a = b

  let hash = hash
end)

let pp ppf t =
  let pp_code ppf c =
    let k = cls c in
    match tag c with
    | x when x = tag_const -> Format.fprintf ppf "c%d=%a" k Value.pp t.consts.(k)
    | x when x = tag_dist -> Format.fprintf ppf "d%d" k
    | x when x = tag_exist -> Format.fprintf ppf "e%d" k
    | _ -> Format.fprintf ppf "?%d" k
  in
  Format.fprintf ppf "%s(%a)" t.pred
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_code)
    (Array.to_seq t.codes)
