(** Closed-form queueing results used to validate the simulator.

    The discrete-event substrate is trusted because, fed textbook arrival
    processes, it reproduces textbook queueing delays: an M/D/1 queue for
    Poisson arrivals of fixed-size packets (the integration suite compares
    simulated FIFO waits against {!md1_mean_wait} to within a few
    percent).

    The second half is deterministic network calculus for the E1 bake-off
    shapers: each function encodes a published per-hop delay bound and is
    registered as an [Ispn_check.Audit] invariant, so [--check] proves
    measured delay <= analytic bound for every delivered packet.  All
    functions raise [Invalid_argument] naming the offending values when a
    precondition is violated (unstable load, zero rates) instead of
    returning a negative or infinite figure. *)

val md1_mean_wait : lambda:float -> service:float -> float
(** Mean waiting time in an M/D/1 queue (Pollaczek-Khinchine with zero
    service variance): [rho * s / (2 (1 - rho))] where [s] is the fixed
    service time and [rho = lambda * s], [0 < rho < 1]. *)

(** {2 Deterministic bounds for the bake-off shapers}

    Rates are bit/s, bursts and packet sizes bits, results seconds. *)

val rate_latency_delay :
  burst_bits:float -> rate_bps:float -> service_rate_bps:float ->
  latency_s:float -> float
(** Worst-case queueing delay of a token-bucket flow (or aggregate)
    [(burst_bits, rate_bps)] through a rate-latency server
    [beta_{service_rate,latency}]: [latency + burst / service_rate]
    (Le Boudec-Thiran Thm 1.4.2 — the horizontal deviation between the
    arrival and service curves).  Requires [rate <= service_rate]. *)

val wrr_service :
  link_rate_bps:float -> weight:int -> total_weight:int ->
  max_packet_bits:int -> float * float
(** [(rate, latency)] of the rate-latency service curve a weighted
    round-robin scheduler guarantees a flow of [weight] among
    [total_weight] (packet-counted weights, one packet per credit): rate
    [w/W * C] and latency [(W - w + 1) * L / C] — the packet-WRR
    specialisation of Constantin et al.'s corrected WRR service curve
    (arXiv:2207.11952, PAPERS.md), which tightens the classical
    [(W - w)]-round latency by accounting for the flow's own first
    packet only once. *)

val mc_fifo_delay :
  link_rate_bps:float -> total_burst_bits:float -> total_rate_bps:float ->
  max_packet_bits:int -> float
(** Per-class = aggregate delay bound at a multiclass FIFO link carrying
    token-bucket classes with total burst [sigma = total_burst_bits] and
    total rate [rho = total_rate_bps < C]: [(sigma + L) / C] (Jiang-Misra,
    PAPERS.md: at a FIFO server every class sees the aggregate's delay, so
    the per-class bound needs no per-class stability slack).  [L] covers
    the packet whose transmission is in progress at arrival. *)

val sp_service :
  link_rate_bps:float -> higher_rate_bps:float -> higher_burst_bits:float ->
  max_packet_bits:int -> float * float
(** [(rate, latency)] of the rate-latency service curve a strict-priority
    class sees below token-bucket higher-priority interference
    [(higher_burst_bits, higher_rate_bps)]: leftover rate
    [C - higher_rate] and latency [(higher_burst + L) / (C - higher_rate)]
    ([L] again the non-preemptable packet in flight).  This is the
    strict-priority leftover-service curve Mohammadpour et al. build the
    ATS end-to-end bounds from (PAPERS.md). *)

val cbs_latency :
  link_rate_bps:float -> idle_slope_bps:float -> higher_slope_bps:float ->
  max_packet_bits:int -> float
(** Latency term of the Credit-Based Shaper rate-latency service curve
    [beta_{idleSlope, T}] for a class with [idle_slope_bps], below
    higher CBS classes of summed slope [higher_slope_bps] (0 for the
    highest class).  [T = 2L/I + 2L/C + 3L/(C - I_H)] (the last term only
    when [I_H > 0]): credit recovery after a max-size frame ([2L/I]
    covers credit as negative as [-L·(C-I)/C] plus the frame itself),
    one non-preemptable lower-priority frame on the wire ([2L/C] with
    the class's own store-and-forward step), and the higher classes'
    shaped burst clearing at the leftover rate ([3L/(C - I_H)], using
    the CBS property that a higher class's backlogged output is
    burst-limited to [I_H·L/C + L <= 2L] plus one frame in flight).
    Conservative per-hop form of Mohammadpour et al.'s CBS latency
    (PAPERS.md). *)
