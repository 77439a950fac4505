(** Growable circular FIFO buffer of ints.

    A drop-in for [Stdlib.Queue] on packet hot paths: one flat [int array]
    instead of a cons cell per element, so the steady-state push→pop cycle
    allocates nothing.  Payloads are ints (packet handles, flow ids,
    tokens), so every store is a plain move with no write barrier and a
    popped slot is left as it is: an int keeps nothing alive.  Used by the
    strictly-FIFO schedulers (FIFO, the per-flow queues of DRR and HRR,
    Stop-and-Go's frame queue) and signaling's reap queues;
    ranked queues use {!Kheap}. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 16) is allocated up front. *)

val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit
(** Append at the tail. *)

val peek_exn : t -> int
(** Head element without removing it; raises [Invalid_argument] when
    empty. *)

val pop_exn : t -> int
(** Remove and return the head; raises when empty.  Guard with
    {!is_empty}: the drain path allocates nothing. *)
