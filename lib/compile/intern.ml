(* A bounded hash-consing table: structural values in, small dense ids out.

   Repeat structure becomes a single hash + structural-equality probe, and
   the downstream consumer (the shard's label cache) keys on the int id
   instead of re-serializing or re-comparing the structure. Ids are
   monotone across the table's whole lifetime: when the table reaches
   capacity it is flushed (a DoS of distinct structures must not grow
   memory without bound), and because ids never restart, an id handed out
   before a flush can never collide with one handed out after — a stale id
   simply never matches again and ages out of whatever LRU holds it.

   Not thread-safe by design: each shard owns its interner the way it owns
   its label cache. *)

type 'k t = {
  capacity : int;
  table : ('k, int) Hashtbl.t;
  mutable next : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Intern.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (min capacity 1024);
    next = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let intern t key =
  match Hashtbl.find_opt t.table key with
  | Some id ->
    t.hits <- t.hits + 1;
    id
  | None ->
    t.misses <- t.misses + 1;
    if Hashtbl.length t.table >= t.capacity then begin
      (* [clear] keeps the grown bucket array; [reset] would shrink it and
         every flush cycle would rehash its way back up. *)
      Hashtbl.clear t.table;
      t.flushes <- t.flushes + 1
    end;
    let id = t.next in
    t.next <- id + 1;
    Hashtbl.add t.table key id;
    id

let length t = Hashtbl.length t.table

let capacity t = t.capacity

let hits t = t.hits

let misses t = t.misses

let flushes t = t.flushes
