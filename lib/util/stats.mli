(** Online summary statistics: count, running mean and extrema.

    Used for per-link delay accounting where only the mean and extrema
    are needed; when exact percentiles are required, pair with
    {!Fvec} + {!Quantile}. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val count : t -> int
val mean : t -> float
(** Mean of the observations; [0.] when empty. *)

val min : t -> float
(** Smallest observation; [infinity] when empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] when empty. *)
