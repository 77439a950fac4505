(** Exact quantiles over recorded samples.

    The paper reports 99.9'th percentile queueing delays; we compute them
    exactly from the full sample set (nearest-rank definition) rather than
    with a sketch, since a ten-minute run fits comfortably in memory. *)

val of_sorted : float array -> float -> float
(** [of_sorted a q] is the nearest-rank [q]-quantile of the ascending array
    [a], for [q] in [\[0, 1\]].  Raises [Invalid_argument] on an empty array
    or [q] outside the range. *)

val percentile : Fvec.t -> float -> float
(** [percentile v p] with [p] in [\[0, 100\]]. *)

val median : Fvec.t -> float
