(* LRU cache: hash table into an intrusive doubly-linked recency list
   (head = most recent, tail = eviction candidate). Keys are any structural
   type the polymorphic Hashtbl hashes correctly — the serving layer uses
   hash-consed int query ids, tests and older callers use strings. Not
   thread-safe by design — each shard owns one cache and is the only domain
   touching it. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable evictions : int;
  mutable promotions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Label_cache.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 1024);
    head = None;
    tail = None;
    evictions = 0;
    promotions = 0;
  }

(* Is this node already the recency head? [t.head != Some node] does not
   work: [Some node] allocates a fresh block, so physical inequality is
   always true and the fast path is dead — compare against the head's
   contents instead. *)
let at_head t node =
  match t.head with
  | Some h -> h == node
  | None -> false

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with
  | Some h -> h.prev <- Some node
  | None -> t.tail <- Some node);
  t.head <- Some node

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    if not (at_head t node) then begin
      t.promotions <- t.promotions + 1;
      unlink t node;
      push_front t node
    end;
    Some node.value
  | None -> None

let mem t key = Hashtbl.mem t.table key

let add t key value =
  match Hashtbl.find_opt t.table key with
  | Some node ->
    node.value <- value;
    if not (at_head t node) then begin
      t.promotions <- t.promotions + 1;
      unlink t node;
      push_front t node
    end
  | None ->
    if Hashtbl.length t.table >= t.capacity then begin
      match t.tail with
      | Some lru ->
        unlink t lru;
        Hashtbl.remove t.table lru.key;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.table key node;
    push_front t node

let length t = Hashtbl.length t.table

let capacity t = t.capacity

let evictions t = t.evictions

let promotions t = t.promotions
