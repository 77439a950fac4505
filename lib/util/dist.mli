(** Random variate generation on top of {!Prng}.

    These are the distributions needed by the paper's Appendix: the two-state
    Markov sources draw geometrically distributed burst lengths and
    exponentially distributed idle periods. *)

val uniform : Prng.t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)].  Requires [lo <= hi]. *)

val exponential : Prng.t -> mean:float -> float
(** Exponential with the given mean (not rate).  Requires [mean > 0]. *)

val geometric : Prng.t -> mean:float -> int
(** Geometric on [{1, 2, ...}] with the given mean.  Requires [mean >= 1].
    This is the number of Bernoulli trials up to and including the first
    success with success probability [1 /. mean]. *)

val bernoulli : Prng.t -> p:float -> bool
(** True with probability [p]. *)

val pareto : Prng.t -> shape:float -> scale:float -> float
(** Pareto (type I) with minimum [scale] and tail index [shape], by
    inversion: heavy-tailed session holding times for the churn workload.
    The mean is [shape *. scale /. (shape -. 1.)] when [shape > 1] and
    infinite otherwise.  Requires both arguments positive. *)
