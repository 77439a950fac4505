(** Exact quantiles over recorded samples.

    The paper reports 99.9'th percentile queueing delays; we compute them
    exactly from the full sample set (nearest-rank definition) rather than
    with a sketch, since a ten-minute run fits comfortably in memory.
    A single quantile of unsorted samples is found by selection, in
    expected linear time, comparing with float [<] only: samples must not
    be NaN.  Among values equal under [compare] (such as [-0.] and [0.])
    the one returned is unspecified. *)

val of_sorted : float array -> float -> float
(** [of_sorted a q] is the nearest-rank [q]-quantile of the ascending array
    [a], for [q] in [\[0, 1\]].  Raises [Invalid_argument] on an empty array
    or [q] outside the range. *)

val select : float array -> float -> float
(** [select a q] is [of_sorted] of an ascending copy of [a], found in
    place: it permutes [a].  Quickselect (Hoare's FIND) around a
    median-of-three pivot, sorting what remains after [2 log2 n]
    partition rounds, so no input costs more than O(n log n).  Raises
    [Invalid_argument] as {!of_sorted}. *)

val percentile : Fvec.t -> float -> float
(** [percentile v p] with [p] in [\[0, 100\]]: {!select} on one copy of
    [v], which is left unchanged. *)
