(** The one runner behind Tables 1-3 and the Figure-1-family extensions.

    Each run is a {!Scenario.t} (links, and the Appendix's two-state Markov
    sources behind [(A, 50)] token-bucket policers) handed to {!run} with
    a per-link scheduler factory and one {!Instr.t}; a [wire] hook adds
    what an experiment needs beyond that (CSZ registrations, TCPs,
    play-back clients, a cheating source, a queue watcher).  Delays are in
    the paper's units (per-packet transmission times), and every run is
    deterministic in [seed]. *)

type sched = Fifo | Wfq | Fifo_plus

val sched_name : sched -> string

type flow_result = {
  flow : int;
  hops : int;
  received : int;
  mean : float;  (** Mean queueing delay, packet-transmission times. *)
  p999 : float;  (** 99.9th percentile. *)
  max : float;
}

type run_info = {
  duration : float;
  utilization : float array;  (** Per inter-switch link. *)
  offered : int;  (** Packets generated by all sources. *)
  source_dropped : int;  (** Dropped by edge token-bucket policers. *)
  net_dropped : int;  (** Dropped at switch buffers. *)
}

type rt_flow = {
  spec : Scenario.flow_spec;
  source : Ispn_traffic.Source.t;
  policer : Ispn_traffic.Token_bucket.policer;
  probe : Ispn_sim.Probe.t;
}
(** One real-time flow: Appendix on/off source behind an [(A, 50)] edge
    policer, measured by a probe at its egress switch. *)

val result_of_rt_flow : rt_flow -> flow_result

val register_arena_metrics : Ispn_obs.Metrics.t -> unit
(** {!Instr.register_arena_metrics}. *)

(** {2 The runner} *)

type wiring = {
  engine : Ispn_sim.Engine.t;
  net : Ispn_sim.Network.t;
  prng : Ispn_util.Prng.t;  (** Already split once per flow. *)
  instr : Instr.t;
  flows : rt_flow list;  (** Attached, not yet started. *)
}

val run :
  ?instr:Instr.t ->
  ?wire:(wiring -> unit -> unit) ->
  qdisc_of:
    (Ispn_sim.Engine.t -> pool:Ispn_sim.Qdisc.pool -> int -> Ispn_sim.Qdisc.t) ->
  duration:float ->
  seed:int64 ->
  Scenario.t ->
  flow_result list * run_info
(** Build the network, link [i] scheduled by [qdisc_of engine ~pool i]
    over a [Units.buffer_packets] pool, and hand every link and pool to
    [instr] (default: none); attach the flows (the audit checks each
    [(A, 50)] envelope at its ingress link); call [wire]; arm [instr];
    start the sources, then the starter [wire] returned; run for
    [duration].  Results are in the scenario's flow order.  Raises
    [Invalid_argument] naming the flow when its routed path is not
    {!Scenario.hops} links long, since the reported path length would be
    wrong.  No instrument, the flight recorder in [instr] included,
    changes the results. *)

val qdisc :
  ?metrics:Ispn_obs.Metrics.t ->
  sched ->
  Ispn_sim.Engine.t ->
  pool:Ispn_sim.Qdisc.pool ->
  int ->
  Ispn_sim.Qdisc.t
(** A Table 1-2 scheduler as a [qdisc_of], gauges in [metrics]. *)

val run_figure1 :
  sched:sched ->
  ?duration:float ->
  ?seed:int64 ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  unit ->
  flow_result list * run_info
(** {!run} of {!Scenario.figure1} over [qdisc sched], the handles wrapped
    by {!Instr.of_handles}; defaults 600 s, seed 42. *)

(** {2 Table 3: the unified algorithm} *)

type t3_row = {
  label : string;  (** Peak / Average / High / Low. *)
  t3_flow : int;
  t3_hops : int;
  t3_mean : float;
  t3_p999 : float;
  t3_max : float;
  pg_bound : float option;  (** Only for guaranteed flows. *)
}

type tcp_result = {
  tcp_flow : int;
  goodput_bps : float;
  loss_rate : float;
  delivered : int;
  segments_sent : int;
}

type t3_result = {
  rows : t3_row list;  (** The paper's eight sample flows, in order. *)
  all_flows : flow_result list;  (** Every real-time flow. *)
  tcp : tcp_result list;
  info : run_info;
  realtime_utilization : float array;  (** Per link. *)
  datagram_drop_rate : float;
}

val run_table3 :
  ?avg_rate_pps:float ->
  ?duration:float ->
  ?seed:int64 ->
  ?instr:Instr.t ->
  unit ->
  t3_result
(** Figure-1 topology under the unified CSZ scheduler: per link 2
    Guaranteed-Peak (clock rate [2A]), 1 Guaranteed-Average (clock rate
    [A]), 3 Predicted-High, 4 Predicted-Low and one TCP connection.
    [instr]'s audit also checks guaranteed packets against their PG
    bounds, and its histograms get [csz.class.<c>.delay] per class. *)
