(** Float-keyed binary min-heap of ints with FIFO tie-breaking — the
    ranked-queue hot path shared by every time-stamp and deadline
    scheduler.

    Every ranked scheduler in the library (WFQ, VirtualClock, EDF, FIFO+,
    Jitter-EDD, and the inner queues of the unified CSZ scheduler) orders
    packets by a float rank — a virtual finish time or a deadline — and
    breaks ties in arrival order.  This heap bakes that exact shape in:
    structure-of-arrays storage ([float array] keys, [int array] tie-break
    sequence numbers, [int array] payloads), monomorphic float comparison
    (no polymorphic-[compare] C call per sift step, no closure dispatch),
    and a non-allocating [is_empty]/[pop_exn] drain.

    Payloads are ints (a packet is an int handle, see [Packet.t]), so every
    store is a plain move: no write barrier, no flat-float-array test, and
    a vacated slot needs no clearing because it keeps nothing alive.  The
    steady-state push→pop cycle allocates nothing.

    Equal keys drain in ascending sequence order.  {!push} stamps each
    element from an internal monotone counter, so pushes drain FIFO within
    a key; {!push_pinned} re-inserts an element under a caller-kept
    sequence number (a scheduler un-committing a packet, Jitter-EDD
    promoting a held packet), preserving its original rank among its
    contemporaries.  Pinned sequence numbers must come from the same
    counter-space as the heap's own stamps (i.e. from entries previously
    popped off this heap, or a single external counter used for every push)
    or ties become ambiguous.

    Keys must not be NaN (every rank in the library is a finite time).
    {!pop_exn} picks the lesser child from comparison results, not a
    branch.  Between equal (key, seq) pairs, which pinned pushes can make
    (Jitter-EDD, CSZ), it takes the left child, as a branch on strict
    order does, so such pairs still drain in the same order.  That order
    depends on the heap's layout, so the heap stays binary: another arity
    could reorder them.  The engine keeps its pending events in its own
    near and far 4-ary heaps, keyed straight from its event arena, not in
    [Kheap]s. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) is honored immediately: all three arrays are
    allocated to it up front, so a correctly-sized heap never
    reallocates. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> key:float -> int -> unit
(** Insert under [key], tie-broken FIFO against other {!push}es. *)

val push_pinned : t -> key:float -> seq:int -> int -> unit
(** Insert under [key] with an explicit tie-break rank (see above). *)

val min_key_exn : t -> float
(** Key of the minimum element; raises [Invalid_argument] when empty. *)

val min_seq_exn : t -> int
(** Sequence number of the minimum element; raises when empty.  Read it
    before {!pop_exn} when re-inserting via {!push_pinned}. *)

val pop_exn : t -> int
(** Remove and return the minimum payload; raises when empty.  Guard with
    {!is_empty}: the drain path allocates nothing (no option box). *)
