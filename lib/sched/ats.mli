(** Asynchronous Traffic Shaping (IEEE 802.1Qcr): interleaved per-flow
    regulators in front of a strict-priority core.

    Each class is one FIFO whose head packet is released only when its
    flow's token bucket conforms; behind the head the class waits
    (interleaved regulation).  Re-shaping every flow back to its original
    [(rate, burst)] envelope at each hop stops burst accumulation, so the
    per-hop strict-priority bound ([Analytic.sp_service]) applies with
    the {e original} bursts at every hop and — by the shaping-for-free
    theorem the ATS analysis rests on (Mohammadpour et al., PAPERS.md) —
    the regulator hold adds at most the delay bound already accumulated
    upstream.

    Non-work-conserving: when every backlogged class's head is still
    earning tokens the link idles until the earliest conformance time via
    [attach_waker] (the work-conservation audit exempts "ATS").  Each
    flow's regulator is an [Ispn_traffic.Token_bucket], the edge
    policer's filter. *)

val create :
  engine:Ispn_sim.Engine.t ->
  pool:Ispn_sim.Qdisc.pool ->
  n_classes:int ->
  class_of:(int -> int) ->
  shaper_of:(int -> float * float) ->
  unit ->
  Ispn_sim.Qdisc.t
(** [class_of] maps a flow id to its priority class in
    [0 .. n_classes - 1] (0 highest); [shaper_of] gives the flow's
    regulator [(rate_bps, burst_bits)], consulted once when the flow is
    first seen — both must be positive ([Invalid_argument] otherwise),
    and the burst must cover the flow's largest packet or its class
    blocks forever.  Buckets start full.  The engine schedules the
    head-conformance wakeups. *)
