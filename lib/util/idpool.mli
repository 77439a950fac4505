(** Recyclable integer-id allocator: the flow-slot free list under churn.

    The dense per-flow arrays on the hot path (scheduler weights, class
    maps, meters) are indexed by flow id, so ids handed to short-lived
    sessions must be recycled or the arrays grow with *cumulative*
    sessions instead of *concurrent* ones.  An [Idpool.t] hands out ids
    from a contiguous range [\[0, capacity)], LIFO-recycling released
    slots (maximum reuse stress) and doubling the range only when every
    slot is busy.

    Accounting mirrors [Qdisc.pool] / [Packet.pool_stats] and feeds the
    [flow-state] audit invariant: takes = releases + in-use at all times,
    and [bad_releases] (double free, out-of-range) must stay zero.
    {!take} and {!release} allocate nothing once the pool is warm. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ()] makes an empty pool.  [capacity] (default 64) is the
    initial slot count; the pool doubles itself when exhausted.  Storage
    is allocated as slots are first handed out, so [create] costs O(1)
    whatever the capacity.  Raises [Invalid_argument] on non-positive
    [capacity]. *)

val take : t -> int
(** Pop a free id (most recently released first).  Grows the pool when no
    slot is free, so it never fails. *)

val release : t -> id:int -> unit
(** Return [id] to the free list.  Releasing an
    id that is out of range or not currently taken only increments
    {!bad_releases} — the audit turns that into a violation. *)

val is_taken : t -> id:int -> bool
(** Whether [id] is currently handed out.  Out-of-range ids are [false]. *)

(** {2 Accounting} *)

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
