(** Growable float vector.

    A delay probe appends one observation per packet to one vector per
    flow; a ten-minute Table-2 run records a few hundred thousand floats
    per flow, so the representation is an amortized-doubling
    [float array] rather than a list. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val push : t -> float -> unit

val push_from : t -> float array -> int -> unit
(** [push_from t a i] is [push t a.(i)], but the element never crosses a
    call boundary, so it is not boxed: once the vector has capacity, it
    allocates nothing. *)

val get : t -> int -> float
(** Raises [Invalid_argument] when out of bounds. *)

val to_array : t -> float array
(** Fresh array of the live elements. *)

val iter : (float -> unit) -> t -> unit

val sum : t -> float
(** Left-to-right sum from [0.]: bit-identical to
    [List.fold_left ( +. ) 0.] over the elements. *)

val max : init:float -> t -> float
(** [init] or the largest element, whichever is larger, chosen as a
    left fold of [Stdlib.max] from [init] would choose it. *)
