(** One simulation job's instruments — the audit, metrics registry, series
    sampler and wait histograms behind [--check], [--metrics] and
    [--series], and the flight recorder behind [trace] — and every rule
    for wiring them into a run.

    A runner hands each link to {!attach_link} and each buffer pool to
    {!register_pool}, registers its own instruments through the accessors,
    and calls {!arm} before its sources start; the job's owner reads
    {!finish}.  With every switch off each call is a no-op: no tap, no
    registry, no sampler. *)

type t

val create : check:bool -> metrics:bool -> series:bool -> t
(** [series] implies a registry and a histogram set over it, sampled every
    simulated second; the registry is exported only under [metrics].  Make
    the bundle when the job starts, in its domain: {!finish} frees the
    packets made after this call. *)

val of_handles :
  ?metrics:Ispn_obs.Metrics.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  ?recorder:Ispn_obs.Recorder.t ->
  unit ->
  t
(** Wrap handles the caller built and reads itself: the flight recorder,
    and those of {!Experiment.run_figure1}, whose signature the repository
    benchmark pins.  Everything else passes a [t]. *)

val audit : t -> Ispn_check.Audit.t option
val metrics : t -> Ispn_obs.Metrics.t option
val hist : t -> Ispn_obs.Hist.t option

val attach_link : t -> Ispn_sim.Link.t -> unit
(** Attach the audit, register the [link.<id>] counters, feed a
    [link.<id>.wait] channel from the dequeue tap and attach the recorder
    ({!Ispn_sim.Link.attach_recorder}), as each is present. *)

val register_pool : t -> link:int -> Ispn_sim.Qdisc.pool -> unit
(** Register a link's buffer pool as [link.<i>.pool.*] and with the audit. *)

val register_arena_metrics : Ispn_obs.Metrics.t -> unit
(** [arena.in_use], relative to the count at registration: the per-domain
    arena counters are cumulative across pool jobs, so the delta is what
    keeps sampled series [-j]-independent. *)

val arm : t -> Ispn_sim.Engine.t -> unit
(** Register [engine.*] and [arena.in_use], then attach the sampler — last,
    so its t=0 row already has every column. *)

type export = {
  audit : Ispn_check.Audit.summary option;
  snapshot : Ispn_obs.Metrics.snapshot option;
  timeline : Ispn_obs.Series.export option;
}

val finish : t -> export
(** Call once, in the domain that ran the job.  Once the exports are taken
    it frees the packets the job left in flight: every packet of this
    domain live now but not when the bundle was made. *)

val run_sharded :
  check:bool ->
  metrics:bool ->
  series:bool ->
  until:float ->
  Ispn_sim.Shardnet.spec ->
  Ispn_sim.Shardnet.result * export
(** {!Ispn_sim.Shardnet.run} with one bundle per shard, created, wired and
    finished in the shard's own domain (so the audit reads that shard's
    packet arena), and the exports merged.  Shards register no [engine.*]
    or [arena.*] gauges: those are per domain and would not merge. *)
