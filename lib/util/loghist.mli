(** Log-bucketed (geometric) histogram for delay tails.

    The paper reads predicted service off the {e shape} of the delay
    distribution — 99.9th-percentile queueing delay, not the mean — so the
    observability layer needs tail quantiles that are cheap enough to feed
    from the link dequeue path on every packet.  [Quantile] keeps the full
    sample set (exact, but O(samples) memory and a sort per read); this
    histogram keeps a fixed array of geometric buckets instead: [add] is a
    branch, a [log10], and an int store — no allocation — and a percentile
    read is a cumulative walk over the bucket counts.

    Buckets: bucket [i] covers [lo * r^i, lo * r^(i+1)) with
    [r = 10^(1/per_decade)], so every bucket has the same {e relative}
    width.  Values below [lo] land in a dedicated underflow bucket
    (represented as 0 — a zero wait on an idle link is the common case),
    values at or above [hi] in an overflow bucket (represented as [hi]).
    A reported percentile is the geometric midpoint of the bucket holding
    the nearest-rank sample, so it is within a factor [sqrt r] of the exact
    nearest-rank value — one bucket's relative error
    (see [test/test_series.ml] for the qcheck harness against
    [Quantile.of_sorted]). *)

type t

val create : ?lo:float -> ?hi:float -> ?per_decade:int -> unit -> t
(** Defaults: [lo = 1e-6] (1 us), [hi = 1e3] s, [per_decade = 20]
    (relative bucket width [10^(1/20) ~ 12%]); 180 buckets at the
    defaults.  Raises [Invalid_argument] unless [0 < lo < hi] and
    [per_decade > 0]. *)

val add : t -> float -> unit
(** Record one sample.  Allocation-free (pinned by [test_budget.ml]);
    negative samples count as underflow. *)

val count : t -> int
(** Total samples recorded, including under/overflow. *)

val underflow : t -> int
val overflow : t -> int

val ratio : t -> float
(** The geometric bucket width [r] — the relative error bound on
    {!percentile}. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]]: the representative value
    (geometric bucket midpoint; 0 for underflow, the upper bound for
    overflow) of the bucket holding the nearest-rank sample.  Raises
    [Invalid_argument] when empty or [p] is out of range. *)

val buckets : t -> (float * float * int) list
(** Non-empty regular buckets, ascending, as [(lower, upper, count)].
    Under/overflow are not included — read them via {!underflow} and
    {!overflow}. *)

val render : unit_label:string -> t -> string
(** Bar chart with one line per non-empty bucket, ascending: underflow
    ([<lo]), the regular buckets ([lower-upper]), then overflow ([>=hi]).
    Each line shows [unit_label] and ends with its count; bars are scaled
    so the fullest bucket spans 50 characters. *)
