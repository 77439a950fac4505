(** Runners that regenerate the paper's experiments.

    Each function builds the network, attaches the Appendix's two-state
    Markov sources behind [(A, 50)] token-bucket policers, runs the
    discrete-event simulation for the requested duration, and returns
    per-flow delay statistics in the paper's units (per-packet transmission
    times).  All runs are deterministic in [seed]. *)

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

val run_single_link :
  sched:sched ->
  ?n_flows:int ->
  ?avg_rate_pps:float ->
  ?duration:float ->
  ?seed:int64 ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?recorder:Ispn_obs.Recorder.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  unit ->
  flow_result list * run_info
(** Table 1's setup: one 1 Mbit/s link shared by [n_flows] (default 10)
    identical on/off flows with [A] = 85 pkt/s, policed by [(A, 50)].

    Every runner takes the same observability hooks and wires them
    through one {!Instr.t}: [metrics] (engine, per-link counters and
    pools, scheduler gauges, the arena gauge), [audit] (links, pools, edge
    token buckets and Table 3's PG bounds), [series] (armed after all
    registration) and [hist] ([link.<i>.wait] per hop; Table 3 adds
    [csz.class.<c>.delay] per class) — read them after the call returns.
    [recorder] is attached to every link and fills with the per-packet
    event trace ({!Ispn_obs.Attrib} attributes delay per hop).  None of
    these changes the results (series ticks do count toward [engine.*]). *)

val run_figure1 :
  sched:sched ->
  ?avg_rate_pps:float ->
  ?duration:float ->
  ?seed:int64 ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?recorder:Ispn_obs.Recorder.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  unit ->
  flow_result list * run_info
(** Table 2's setup: the Figure-1 chain with the 22-flow layout, one
    scheduler on every link.  Results are in flow-id order (see
    {!Scenario.figure1_flows}). *)

(** {2 Building blocks for custom experiments}

    The extension experiments (bake-off, ablations) reuse the same workload
    attachment machinery with their own schedulers. *)

type rt_flow = {
  spec : Scenario.flow_spec;
  source : Ispn_traffic.Source.t;
  policer : Ispn_traffic.Token_bucket.policer;
  probe : Ispn_sim.Probe.t;
}
(** One real-time flow: Appendix on/off source behind an [(A, 50)] edge
    policer, measured by a probe at its egress switch. *)

val attach_rt_flow :
  ?audit:Ispn_check.Audit.t ->
  Ispn_sim.Network.t ->
  Ispn_util.Prng.t ->
  spec:Scenario.flow_spec ->
  avg_rate_pps:float ->
  rt_flow
(** Install the flow's route and build its source (not yet started).
    With [audit], the flow's [(A, 50)] envelope is registered for
    token-bucket conformance checking at its ingress link. *)

val result_of_rt_flow : rt_flow -> flow_result

val register_arena_metrics : Ispn_obs.Metrics.t -> unit
(** {!Instr.register_arena_metrics}. *)

val run_figure1_custom :
  qdisc_of:
    (Ispn_sim.Engine.t ->
    pool:Ispn_sim.Qdisc.pool ->
    int ->
    Ispn_sim.Qdisc.t) ->
  ?avg_rate_pps:float ->
  ?duration:float ->
  ?seed:int64 ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?recorder:Ispn_obs.Recorder.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  unit ->
  flow_result list * run_info
(** The Figure-1 workload over arbitrary per-link schedulers; the factory
    receives the run's engine, so that frame-based (non-work-conserving)
    schedulers can arm their timers, and the link's buffer pool, already
    registered with the run's instruments. *)

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
  ?discard_late_above:float ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?recorder:Ispn_obs.Recorder.t ->
  ?audit:Ispn_check.Audit.t ->
  ?series:Ispn_obs.Series.t ->
  ?hist:Ispn_obs.Hist.t ->
  unit ->
  t3_result
(** Figure-1 topology under the unified CSZ scheduler: per link 2
    Guaranteed-Peak (clock rate [2A]), 1 Guaranteed-Average (clock rate
    [A]), 3 Predicted-High, 4 Predicted-Low and one TCP connection. *)
