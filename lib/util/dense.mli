(** Growth of dense flow-indexed tables (DESIGN.md §5).

    Every per-flow table in the library (and a network's forwarding
    table) grows through {!fit}, with one policy: double to a power
    of two times the old length, from 32 slots when empty, until the
    index fits.  Growing to [index + 1] instead leaves odd lengths that
    later doublings keep: for [scale]'s 2000 routes it took 40% more
    slots.  Callers keep their bounds check inline and call {!fit} only
    to grow, so the per-packet path makes no call.  Containers that grow
    by used length or wrap ([Ring], [Kheap], [Fvec], [Idpool]) are not
    tables in this sense. *)

val fit : 'a array -> int -> 'a -> 'a array
(** [fit a i fill] is [a] when index [i] fits; otherwise a copy of [a]
    grown to hold [i], the new slots set to [fill]. *)
