(** Bounded hash-consing: structural values in, monotone dense int ids out.

    Interning the same structure twice returns the same id for the price
    of one hash + structural-equality probe. The table is bounded: at
    capacity it is flushed wholesale, but ids keep counting up, so an id
    issued before a flush can never be re-issued after one — stale ids
    merely stop matching and age out of downstream caches. Single-owner,
    not thread-safe (like the label cache it feeds). *)

type 'k t

val create : capacity:int -> 'k t
val intern : 'k t -> 'k -> int
val length : 'k t -> int
val capacity : 'k t -> int
val hits : 'k t -> int
val misses : 'k t -> int
val flushes : 'k t -> int
