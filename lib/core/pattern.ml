(* Canonical position-code encoding of a single-atom query.

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
   and the per-atom label memo keys on them.

   There is one class numbering, [number], over the fold's int codes
   (Cq.Minimize.coded: a variable id, or [lnot] a constant id). Dissect's
   split calls it on every atom of the folded query, so a served query goes
   from the fold's codes to memo keys without a Tagged atom; [encode_exn]
   codes a Tagged atom the same way and calls it too. *)

module Value = Relational.Value

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

(* Per-variable scratch shared by the atoms of one query: [seen.(x) = mark]
   says variable [x] already has its code [slot.(x)] in the atom being
   numbered, and each [number] call takes a fresh [mark]. *)
type scratch = {
  seen : int array;
  slot : int array;
  mutable mark : int;
}

let scratch n_vars = { seen = Array.make n_vars (-1); slot = Array.make n_vars 0; mark = -1 }

let number s ~pred ~dist ~value ids =
  s.mark <- s.mark + 1;
  let arity = Array.length ids in
  let codes = Array.make arity 0 in
  let n_dist = ref 0 and n_exist = ref 0 and n_consts = ref 0 in
  for i = 0 to arity - 1 do
    let x = ids.(i) in
    codes.(i) <-
      (if x >= 0 then begin
         if s.seen.(x) <> s.mark then begin
           s.seen.(x) <- s.mark;
           if dist x then begin
             s.slot.(x) <- code ~tag:tag_dist ~cls:!n_dist;
             incr n_dist
           end
           else begin
             s.slot.(x) <- code ~tag:tag_exist ~cls:!n_exist;
             incr n_exist
           end
         end;
         s.slot.(x)
       end
       else begin
         (* An atom holds few constants: find the first position of this one. *)
         let j = ref 0 in
         while ids.(!j) <> x do
           incr j
         done;
         if !j < i then codes.(!j)
         else begin
           let c = code ~tag:tag_const ~cls:!n_consts in
           incr n_consts;
           c
         end
       end)
  done;
  let consts = if !n_consts = 0 then [||] else Array.make !n_consts (Value.Int 0) in
  for i = 0 to arity - 1 do
    if ids.(i) < 0 then consts.(cls codes.(i)) <- value (lnot ids.(i))
  done;
  { pred; codes; consts }

(* A Tagged atom is coded by position: a term's id is the first position
   holding the same term, so its kind and value are read off that
   position. *)
let encode_exn (a : Tagged.atom) =
  let args = Array.of_list a.Tagged.args in
  let arity = Array.length args in
  if arity > max_arity then raise Outside_fragment;
  let ids =
    Array.init arity (fun i ->
        let j = ref 0 in
        while not (Tagged.term_equal args.(!j) args.(i)) do
          incr j
        done;
        match args.(i) with Tagged.Const _ -> lnot !j | Tagged.Var _ -> !j)
  in
  let dist j = match args.(j) with Tagged.Var (_, Tagged.Distinguished) -> true | _ -> false in
  let value j = match args.(j) with Tagged.Const v -> v | Tagged.Var _ -> assert false in
  number (scratch arity) ~pred:a.Tagged.pred ~dist ~value ids

let encode a = match encode_exn a with p -> Some p | exception Outside_fragment -> None

let arity t = Array.length t.codes

(* Polymorphic equality is exact on this flat data. *)
let equal a b = String.equal a.pred b.pred && a.codes = b.codes && a.consts = b.consts

(* Memo tables are per relation group, so the relation is implicit in a
   memo key: codes and constant values. The hash reads every code and
   every constant, where the generic [Hashtbl.hash] stops after a few
   values and wide relations would share a handful of hash values. *)
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
