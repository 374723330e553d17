(* The shard a ticket belongs to, with its message type hidden: reading the
   ticket runs that shard's rounds until one of them fills it. *)
type home = Home : _ Mailbox.t -> home

type 'a t = {
  value : 'a option Atomic.t;
  home : home option;
}

let create ?home () =
  { value = Atomic.make None; home = Option.map (fun mb -> Home mb) home }

let create_filled v = { value = Atomic.make (Some v); home = None }

let try_fill t v = Atomic.compare_and_set t.value None (Some v)

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let filled t () = Atomic.get t.value <> None

let read t =
  (match t.home with
  | Some (Home mb) -> Mailbox.await mb (filled t)
  | None -> ());
  match Atomic.get t.value with
  | Some v -> v
  | None -> invalid_arg "Ivar.read: empty ivar with no shard to run"

let peek t =
  match Atomic.get t.value with
  | Some _ as v -> v
  | None -> (
    match t.home with
    | Some (Home mb) ->
      Mailbox.poll mb (filled t);
      Atomic.get t.value
    | None -> None)
