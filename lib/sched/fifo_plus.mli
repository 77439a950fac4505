(** FIFO+ — FIFO sharing correlated across hops (Section 6).

    Each switch measures the average queueing delay of the sharing class; a
    departing packet adds [its delay - class average] to the jitter-offset
    field in its header; the next switch orders its queue as if the packet
    had arrived at its *expected* arrival time [actual arrival - offset].  A
    packet that was unlucky upstream (positive offset) is thus scheduled as
    if it had arrived earlier, and vice versa, inducing FIFO-style "equal
    jitter for everyone" across the whole path rather than per hop.  Table 2
    shows the payoff: the 99.9th-percentile delay grows much more slowly
    with path length than under FIFO or WFQ.

    The class-average delay is an EWMA.  The default gain is deliberately slow
    (1/4096, a time constant of several seconds at the paper's packet rates):
    the offset a packet exports must be measured against the class's
    {e long-run} average.  A fast-adapting average rises during a burst and
    mutes the offsets of exactly the packets FIFO+ exists to help, which
    collapses the mechanism back to plain FIFO (the ablation bench
    reproduces this).

    Section 10's late-packet discard is available as an option: a packet
    arriving with an offset already above a threshold is a target for
    immediate discard, since it has no chance of making its play-back
    point. *)

type state
(** Measurement side of one FIFO+ class at one switch. *)

val avg_delay : state -> float
(** Current EWMA of this class's queueing delay at this switch (seconds). *)

val discarded : state -> int
(** Packets dropped by the late-discard rule (0 unless enabled). *)

(** {2 The per-hop mechanism}

    The two halves of one hop, for a scheduler that keeps FIFO+ classes of
    its own ([Csz_sched]'s predicted classes): the stand-alone qdisc below
    is these calls around one [Kheap], so FIFO+ is written once. *)

val state :
  ewma_gain:float ->
  discard_late_above:float option ->
  offsets:Ispn_util.Stats.t option ->
  state
(** A class with an empty average.  [discard_late_above] as in {!create};
    [offsets] receives each departing packet's offset. *)

val late : state -> Ispn_sim.Packet.arena -> Ispn_sim.Packet.t -> bool
(** Section 10's late-discard test on an arriving packet: whether its
    offset is above the class's threshold, counted in {!discarded}.  The
    caller drops it. *)

val push : Ispn_util.Kheap.t -> Ispn_sim.Packet.arena -> Ispn_sim.Packet.t -> unit
(** Queue a packet at its expected arrival time, [enqueued_at - offset]
    (FIFO among equal ranks).  [enqueued_at] must already be stamped. *)

val depart :
  state -> Ispn_sim.Packet.arena -> Ispn_sim.Packet.t -> now:float -> unit
(** Departure accounting at [now]: add [delay - class average] to the
    packet's offset, fold [delay = now - enqueued_at] into the average and
    push the new offset to [offsets]. *)

val create :
  ?ewma_gain:float ->
  ?discard_late_above:float ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?label:string ->
  pool:Ispn_sim.Qdisc.pool ->
  unit ->
  state * Ispn_sim.Qdisc.t
(** [discard_late_above] is an offset threshold in seconds; omitted means
    never discard.  [metrics] registers, under [qdisc.fifo_plus.<label>]
    (label defaults to ["0"]): pull gauges [.avg_delay] and [.discarded],
    plus a push distribution [.offset.{count,mean,min,max}] of the
    jitter-offset each departing packet carries away.  The offset push is
    one [Stats.add] per dequeue, skipped by a single branch when metrics
    are off. *)
