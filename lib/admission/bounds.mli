(** Delay bounds for the two real-time services.

    For guaranteed flows, the Parekh-Gallager result (Section 4): a flow
    that conforms to an [(r, b)] token bucket and receives clock rate [r] at
    every switch on a [K]-hop path has end-to-end queueing delay at most

    {v b/r  +  (K - 1) * Lmax / r v}

    — the delay of draining the full bucket through a single link of rate
    [r], plus one maximal packet of store-and-forward slack per additional
    hop.  Table 3's "P-G bound" column is exactly this quantity.

    For predicted flows, the advertised bound is simply the sum of the
    per-switch class targets [D_i] along the path (Section 7: "the network
    should not attempt to characterize or control the service to great
    precision, and thus should just use the sum of the [D_i]'s"). *)

val pg_bound :
  bucket:Spec.bucket -> clock_rate_bps:float -> hops:int -> unit -> float
(** End-to-end guaranteed queueing-delay bound in seconds over [hops]
    inter-switch links.  [clock_rate_bps] must be at least the bucket rate
    for the bound to be meaningful; raises [Invalid_argument] if it is
    smaller, or if [hops < 1]. *)

val pg_bound_packetized :
  bucket:Spec.bucket ->
  clock_rate_bps:float ->
  hops:int ->
  link_rate_bps:float ->
  max_competitors:int ->
  unit ->
  float
(** {!pg_bound} plus the per-hop packetization slack of a self-clocked
    packetized implementation: at each hop up to [max_competitors] other
    backlogged flows can each slip one maximal packet ahead of the fluid
    schedule, adding [hops * max_competitors * Lmax / C].  The paper's
    Table 3 prints the fluid bound (the slack is negligible at its
    parameters: about 3 packet times against bounds of 24-612); property
    tests that drive adversarial small-bucket/high-rate corners check
    against this packetized form, which our scheduler provably-by-test
    respects. *)

val predicted_bound : cls:int -> hops:int -> float
(** Advertised a-priori bound for a predicted flow placed in class [cls] at
    each of [hops] switches: [hops * Spec.class_targets.(cls)]. *)
