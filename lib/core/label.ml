type atom_label = int

type t = atom_label array

let mask_bits = 31

let mask_max = (1 lsl mask_bits) - 1

let make_atom ~rel_id ~mask =
  if rel_id < 0 || mask < 0 || mask > mask_max then
    invalid_arg "Label.make_atom: argument out of range";
  (rel_id lsl mask_bits) lor mask

let top_atom = 0

let rel l = l lsr mask_bits

let mask l = l land mask_max

let is_top_atom l = mask l = 0

(* ℓ⁺(V) ⊇ ℓ⁺(V'). An empty ℓ⁺ (⊤) is a subset of everything, so everything
   is below ⊤; otherwise the relations must agree and the left mask must
   contain the right one. *)
let atom_leq l l' =
  let m' = mask l' in
  m' = 0 || (rel l = rel l' && mask l land m' = m')

let leq a b = Array.for_all (fun la -> Array.exists (fun lb -> atom_leq la lb) b) a

let equal a b = leq a b && leq b a

let is_top t = Array.exists is_top_atom t

let views_of_atom registry l =
  if is_top_atom l then []
  else
  let entries = Registry.entries_for registry (Registry.rel_name registry (rel l)) in
  let m = mask l in
  Array.to_list entries
  |> List.filter_map (fun (e : Registry.entry) ->
         if m land (1 lsl e.bit) <> 0 then Some e.view else None)

let atoms t = Array.to_list t

(* Hex digits of a non-negative int, at least one, as "%x" writes them. *)
let hex_width n =
  let rec go n w = if n < 16 then w else go (n lsr 4) (w + 1) in
  go n 1

let hex_digits = "0123456789abcdef"

(* Write [n] as [w] lowercase hex digits at [pos]; returns the next free
   position. *)
let put_hex b pos n w =
  let n = ref n in
  for i = pos + w - 1 downto pos do
    Bytes.unsafe_set b i hex_digits.[!n land 15];
    n := !n lsr 4
  done;
  pos + w

(* "rel:mask" per atom in lowercase hex, ';'-separated — the same bytes as
   [Printf.sprintf "%x:%x"] joined by [String.concat ";"], written straight
   into one buffer: this runs on every journaled decision. *)
let encode t =
  let len = ref (max 0 (Array.length t - 1)) in
  Array.iter (fun al -> len := !len + hex_width (rel al) + 1 + hex_width (mask al)) t;
  let b = Bytes.create !len in
  let pos = ref 0 in
  Array.iteri
    (fun i al ->
      if i > 0 then begin
        Bytes.unsafe_set b !pos ';';
        incr pos
      end;
      let p = put_hex b !pos (rel al) (hex_width (rel al)) in
      Bytes.unsafe_set b p ':';
      pos := put_hex b (p + 1) (mask al) (hex_width (mask al)))
    t;
  Bytes.unsafe_to_string b

let decode s =
  if String.trim s = "" then Ok [||]
  else
    let parse_atom part =
      match String.index_opt part ':' with
      | None -> Error (Printf.sprintf "malformed atom label %S (expected rel:mask)" part)
      | Some i -> (
        let rel_s = String.sub part 0 i in
        let mask_s = String.sub part (i + 1) (String.length part - i - 1) in
        match
          ( int_of_string_opt ("0x" ^ rel_s),
            int_of_string_opt ("0x" ^ mask_s) )
        with
        | Some rel_id, Some mask when rel_id >= 0 && mask >= 0 && mask <= mask_max ->
          Ok (make_atom ~rel_id ~mask)
        | _ -> Error (Printf.sprintf "malformed atom label %S" part))
    in
    let parts = String.split_on_char ';' s in
    let rec collect acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | p :: rest -> (
        match parse_atom (String.trim p) with
        | Ok al -> collect (al :: acc) rest
        | Error _ as e -> e)
    in
    collect [] parts

let pp registry ppf t =
  let pp_atom ppf l =
    if is_top_atom l then Format.pp_print_string ppf "⊤"
    else
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf v -> Format.pp_print_string ppf v.Sview.name))
        (views_of_atom registry l)
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_atom)
    (atoms t)
