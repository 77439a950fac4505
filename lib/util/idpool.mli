(** Recyclable integer-id allocator: the flow-slot free list under churn.

    The dense per-flow arrays on the hot path (scheduler weights, class
    maps, meters) are indexed by flow id, so ids handed to short-lived
    sessions must be recycled or the arrays grow with *cumulative*
    sessions instead of *concurrent* ones.  An [Idpool.t] hands out ids
    from a contiguous range [\[base, base + capacity)], LIFO-recycling
    released slots (maximum reuse stress) and doubling the range only when
    every slot is busy.

    Each slot carries a generation counter, bumped on release: a stored
    [(id, generation)] pair names one *incarnation* of the slot, so a
    stale actor (a departure racing a timeout-teardown, a delayed control
    message) can detect with {!try_release} / {!generation} that the id it
    remembers has moved on — the classic ABA guard.

    Accounting mirrors [Qdisc.pool] / [Packet.pool_stats] and feeds the
    [flow-state] audit invariant: takes = releases + in-use at all times,
    and [bad_releases] (double free, out-of-range) must stay zero.
    {!take} and {!release} allocate nothing once the pool is warm. *)

type t

val create : ?base:int -> ?capacity:int -> unit -> t
(** [create ()] makes an empty pool.  [base] (default 0) offsets every id
    handed out, so session slots can live in a range disjoint from
    statically assigned flow ids.  [capacity] (default 64) is the initial
    slot count; the pool doubles itself when exhausted.  Storage is
    allocated as slots are first handed out, so [create] costs O(1)
    whatever the capacity.  Raises [Invalid_argument] on negative [base]
    or non-positive [capacity]. *)

val take : t -> int
(** Pop a free id (most recently released first).  Grows the pool when no
    slot is free, so it never fails. *)

val release : t -> id:int -> unit
(** Return [id] to the free list and bump its generation.  Releasing an
    id that is out of range or not currently taken only increments
    {!bad_releases} — the audit turns that into a violation. *)

val try_release : t -> id:int -> gen:int -> bool
(** Generation-checked release: succeed only if [id] is taken and its
    current generation is [gen].  A mismatch means the slot was already
    released (and possibly re-taken) by someone else; the call returns
    [false], counts one {!stale_releases}, and touches nothing. *)

val generation : t -> id:int -> int
(** The current generation of [id]'s slot (0 before its first release).
    Raises [Invalid_argument] if [id] is outside the pool's range. *)

val is_taken : t -> id:int -> bool
(** Whether [id] is currently handed out.  Out-of-range ids are [false]. *)

(** {2 Accounting} *)

val base : t -> int
val capacity : t -> int

val in_use : t -> int
(** Ids currently taken; always [takes t - releases t]. *)

val takes : t -> int
val releases : t -> int

val hwm : t -> int
(** High-water mark of {!in_use} — peak concurrent sessions, the figure
    that bounds every dense per-flow array. *)

val bad_releases : t -> int
(** Double or out-of-range releases; any non-zero value is a bug. *)

val stale_releases : t -> int
(** {!try_release} calls that lost the generation race.  Expected under
    churn (a departure racing a soft-state timeout); not a bug. *)
