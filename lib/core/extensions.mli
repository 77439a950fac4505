(** Extension experiments beyond the paper's three tables.

    These probe the claims the paper makes in prose (Sections 5, 9, 10 and
    11) but does not tabulate: the related-work scheduler comparison, the
    measurement-based admission control conjecture, the adaptive-vs-rigid
    play-back conjecture of Section 12, the isolation/sharing argument with
    a misbehaving source, and the Section 10 late-discard option.

    Runners that fan out independent simulations ({!run_bakeoff},
    {!run_admission}, {!run_load_sweep}, {!run_seed_robustness}) take [?j]
    (default 1), the number of domains to spread the jobs over via
    {!Ispn_exec.Pool} — results are bit-identical for every [j]. *)

(** {2 E1: scheduler bake-off on the Table-2 workload} *)

type bakeoff_sched =
  | B_wfq
  | B_fifo
  | B_mc_fifo
      (** Plain FIFO shared by the path-length classes, distinguished by
          its Jiang-Misra per-class analytic bound. *)
  | B_fifo_plus
  | B_virtual_clock
  | B_edf  (** Equal per-hop budgets — degenerates to FIFO. *)
  | B_drr
  | B_wrr  (** Packet-counted weighted round robin (Constantin et al.). *)
  | B_rr_groups  (** The Jacobson-Floyd per-group round robin. *)
  | B_cbs
      (** TSN Credit-Based Shaper, classes A/B by path length
          (Mohammadpour et al.); non-work-conserving. *)
  | B_ats
      (** Asynchronous Traffic Shaping: interleaved regulators before a
          strict-priority core (Mohammadpour et al.);
          non-work-conserving. *)
  | B_stop_and_go  (** Non-work-conserving framing (Golestani). *)
  | B_hrr  (** Non-work-conserving rate control (Kalmanek et al.). *)
  | B_jitter_edd  (** Non-work-conserving jitter cancellation (Verma et al.). *)

val bakeoff_name : bakeoff_sched -> string

val bakeoff_bound_kind : bakeoff_sched -> Ispn_check.Audit.bound_kind option
(** Which analytic bound the audit holds a scheduler's flows to (the
    label its [delay-bound] violations carry) — [Some] exactly for the
    four bounded shapers. *)

type bakeoff_row = {
  bk_sched : bakeoff_sched;
  bk_results : Experiment.flow_result list;
  bk_bounds : (int * float) list option;
      (** End-to-end analytic queueing-delay bounds for the modern-shaper
          rows, as [(flow, bound_s)] over the 22 Figure-1 flows — [None]
          for the classic schedulers, which publish no such closed form
          here.  Pure arithmetic on the Figure-1 constants via
          [Ispn_util.Analytic]: per-hop service-curve bounds summed along
          the path, with token-bucket bursts grown by [rate * hop_bound]
          per hop (except ATS, whose regulators re-shape every hop). *)
  bk_check : Ispn_check.Audit.summary option;
      (** Present when run with [~check:true]: the per-run audit, with
          every delivered packet of a bounded scheduler checked against
          its registered end-to-end bound (invariant [delay-bound]). *)
}

val run_bakeoff :
  ?duration:float ->
  ?seed:int64 ->
  ?j:int ->
  ?check:bool ->
  ?scheds:bakeoff_sched list ->
  unit ->
  bakeoff_row list
(** Figure-1 workload under each scheduler in [scheds] (default: the full
    table, in row order); results per flow as in
    {!Experiment.run_figure1}.  With [~check:true] each job attaches an
    [Ispn_check.Audit] context and registers the scheduler's analytic
    bounds, so the summaries prove measured delay <= bound per delivered
    packet; bounds are computed (and printable) either way, keeping
    default stdout identical. *)

(** {2 E2: admission control policies under dynamic load} *)

type admission_policy =
  | Measured  (** The paper's Section 9 rule ({!Ispn_admission.Controller}). *)
  | Worst_case  (** Classic: admit on declared token-bucket sums only. *)
  | Open_door  (** No admission control at all. *)

val policy_name : admission_policy -> string

type admission_result = {
  policy : admission_policy;
  requests : int;
  accepted : int;
  mean_utilization : float;  (** Mean link utilization over the run. *)
  violation_rate : float;
      (** Fraction of predicted-service packets whose per-switch queueing
          delay exceeded their class target [D_i]. *)
  net_drop_rate : float;  (** Buffer drops / packets offered to the net. *)
}

val run_admission :
  ?duration:float -> ?seed:int64 -> ?j:int -> unit -> admission_result list
(** Single 1 Mbit/s link; predicted-service flows arrive Poisson (0.5 per
    second), hold for an exponential time (mean 60 s) and depart.  Each run uses identical arrival/holding
    randomness so the three policies face the same offered load. *)

(** {2 E3: adaptive vs. rigid play-back clients} *)

type playback_result = {
  client : string;  (** "rigid" or "adaptive". *)
  mean_point : float;  (** Mean play-back point, packet-transmission times. *)
  app_loss_rate : float;  (** Fraction of packets missing the point. *)
}

val run_playback :
  ?duration:float -> ?seed:int64 -> unit -> playback_result list
(** The Figure-1 FIFO+ network; the four-hop flow feeds three parallel
    clients: rigid (play-back point at the advertised bound), adaptive
    (windowed 99th-percentile tracker) and VAT-style (exponential filters
    with spike detection). *)

(** {2 E6: jitter shifting between priority classes} *)

type cascade_row = {
  cascade_class : string;  (** "class 0" ... or "datagram". *)
  c_mean : float;  (** Per-hop queueing delay, packet times. *)
  c_p999 : float;
}

val run_cascade :
  ?duration:float -> ?seed:int64 -> unit -> cascade_row list
(** One link, four predicted classes with identical
    on/off load per class plus datagram background: Section 7's cascade —
    each class absorbs the jitter of the classes above it, so delay tails
    grow monotonically down the priority ladder. *)

(** {2 E4: isolation versus sharing with a misbehaving source} *)

type isolation_row = {
  iso_sched : string;
  honest_mean : float;
  honest_p999 : float;
  cheat_mean : float;
  cheat_p999 : float;
}

val run_isolation :
  ?duration:float -> ?seed:int64 -> unit -> isolation_row list
(** Nine conforming on/off flows share a link with one source sending at
    three times its declared rate, under FIFO (sharing only), WFQ
    (isolation), and FIFO behind edge policing (the CSZ answer: isolation
    by enforcement, sharing in the queue). *)

(** {2 E5: Section 10 late-packet discard} *)

type discard_result = {
  threshold : float option;  (** Offset threshold in seconds. *)
  p999_4hop : float;
  discarded_fraction : float;
}

val run_discard :
  ?duration:float -> ?seed:int64 -> unit -> discard_result list
(** Figure-1 all-FIFO+ network, with and without discarding packets whose
    accumulated offset marks them as hopelessly late. *)

(** {2 E8: load sweep — sharing's advantage vs. utilization} *)

type sweep_row = {
  target_utilization : float;
  achieved_utilization : float;
  fifo_p999 : float;
  wfq_p999 : float;
}

val run_load_sweep :
  ?duration:float -> ?seed:int64 -> ?points:float list -> ?j:int -> unit ->
  sweep_row list
(** Table 1's single-link setup at several utilizations (default 0.5, 0.65,
    0.8, 0.9): the sharing advantage (WFQ tail / FIFO tail) is negligible
    when bandwidth is plentiful and grows as the link fills — Section 12's
    point that "careful attention to sharing arises only when bandwidth is
    limited". *)

(** {2 E9: in-band signaling latency} *)

type signaling_row = {
  sig_load : float;  (** Background datagram load per link. *)
  sig_setups : int;  (** Establishment attempts completed. *)
  sig_mean_ms : float;  (** Mean three-way setup latency. *)
  sig_max_ms : float;
}

val run_signaling :
  ?duration:float -> ?seed:int64 -> ?loads:float list -> unit ->
  signaling_row list
(** {!Signaling} setup messages travel the datagram class of a 4-link
    chain while background traffic loads it (default loads 0, 0.5, 0.9):
    establishment latency grows with load because the control packets
    themselves queue — the cost of in-band signaling, which the instant
    central {!Service} hides. *)

(** {2 Seed robustness} *)

type seeds_row = {
  seeds_sched : Experiment.sched;
  p999_mean : float;  (** 4-hop 99.9%ile averaged over the seeds. *)
  p999_min : float;
  p999_max : float;
}

val run_seed_robustness :
  ?duration:float -> ?j:int -> unit -> seeds_row list
(** Table 2's 4-hop tail statistic across seeds 1-5:
    the scheduler ordering (FIFO+ < FIFO < WFQ) must hold for {e every}
    seed, not just the headline one, or the reproduction is luck. *)

(** {2 E11: failover under injected faults} *)

type failover_schedule =
  | F_baseline  (** No faults — the reference run. *)
  | F_link_flap  (** Mid-path link down twice (3 s and 1 s outages). *)
  | F_control_loss
      (** Header corruption on a mid-path link for 60% of the run. *)
  | F_agent_crash
      (** Switch agent crash, with a newcomer usurping the freed capacity
          before the victims re-assert — forcing degradation. *)

val failover_name : failover_schedule -> string

type failover_flow = {
  ff_flow : int;
  ff_requested : string;  (** Service level asked for at setup. *)
  ff_final : string;  (** Level actually held at the end of the run. *)
}

type failover_row = {
  fo_schedule : failover_schedule;
  fo_violation_rate : float;
      (** Fraction of predicted-class packets over their per-hop class
          target, across all links. *)
  fo_lost : int;  (** Packets lost on any link: overflow, outage, corruption. *)
  fo_retries : int;  (** Setup messages retransmitted after timeouts. *)
  fo_abandoned : int;  (** Setups that exhausted their retry budget. *)
  fo_crashes : int;
  fo_degraded : int;  (** Ladder rungs descended across all flows. *)
  fo_reestablished : int;  (** Post-crash re-assertion passes completed. *)
  fo_reestablish_ms : float;  (** Mean crash-to-recovery latency. *)
  fo_flows : failover_flow list;  (** The two watched end-to-end flows. *)
  fo_series : Ispn_obs.Series.export option;
      (** Present when [series]: the schedule's sampled
          timeline (engine, per-link, signaling, arena instruments) plus
          per-hop wait histograms — the degradation ladder as dynamics. *)
}

val run_failover :
  ?duration:float ->
  ?seed:int64 ->
  ?j:int ->
  ?series:bool ->
  unit ->
  failover_row list
(** The architecture under fire, one row per {!failover_schedule} on the
    5-switch chain carrying guaranteed + predicted + datagram traffic with
    periodic probe setups.  Faults come from {!Ispn_faults} plans; the
    signaling layer answers with retransmission, re-setup and the
    degradation ladder.  Shapes to expect: the baseline row is clean (no
    retries, nothing lost beyond policing); link-flap and control-loss lose
    packets and force setup retries; agent-crash re-establishes every flow
    through the dead switch and degrades the watched flows whose
    re-admission the usurper defeats.  Deterministic for a given [seed] at
    every [j] — including the sampled series, which each pool job collects
    on its own registry. *)

(** {2 E12: flight-recorder trace and per-hop delay attribution} *)

type trace_experiment = T_table1 | T_table2 | T_table3
(** Which paper workload to run with the recorder attached: Table 1's
    single FIFO link, Table 2's FIFO+ Figure-1 chain, or Table 3's unified
    CSZ scheduler. *)

val trace_experiment_name : trace_experiment -> string

type trace_hop = {
  th_link : int;  (** 0-based link (hop) index on the path. *)
  th_queueing : float;  (** Packet-transmission times. *)
  th_transmission : float;  (** Packet-transmission times. *)
}

type trace_row = {
  tr_flow : int;
  tr_seq : int;
  tr_hops : trace_hop list;  (** In path order. *)
  tr_queueing : float;  (** Sum of per-hop queueing, packet times. *)
  tr_reported : float;
      (** End-to-end queueing delay the egress probe saw, packet times;
          equals [tr_queueing] up to float noise (the attribution test
          checks this). *)
}

type trace_result = {
  tre_experiment : trace_experiment;
  tre_events : int;  (** Events surviving in the ring at the end. *)
  tre_capacity : int;
  tre_delivered : int;  (** Packets reconstructed from the window. *)
  tre_complete : int;  (** Of those, observed from their first hop. *)
  tre_rows : trace_row list;  (** Worst-delay packets, worst first. *)
}

val run_trace :
  ?experiment:trace_experiment ->
  ?worst:int ->
  ?recorder:Ispn_obs.Recorder.t ->
  ?duration:float ->
  ?seed:int64 ->
  unit ->
  trace_result
(** Run [experiment] (default [T_table2]) with [recorder] (default: a
    ring of [2^20] events) attached to every link, then decompose the
    [worst] (default 5) packets' end-to-end delay into per-hop queueing
    and transmission via {!Ispn_obs.Attrib}.  The ring is left filled, for
    the CLI's [trace --dump] to export.  Deterministic in [seed]; the
    recorder does not perturb the simulation. *)

(** {2 E13: session churn under soft-state signaling} *)

type churn_scenario =
  | C_clean  (** No faults — teardowns all arrive; expiry stays idle. *)
  | C_lossy_teardown
      (** Corruption windows on two mid-path links eat teardown and
          refresh legs; stranded reservations must be reclaimed by the
          refresh timeout, not leak. *)
  | C_agent_crash  (** Two agents crash mid-run, wiping their books. *)
  | C_link_flap  (** A mid-path link goes dark twice under full churn. *)

val churn_name : churn_scenario -> string

type churn_row = {
  ch_scenario : churn_scenario;
  ch_offered : int;  (** Session arrivals (cumulative sessions). *)
  ch_established : int;  (** Setups that completed. *)
  ch_refused : int;  (** Admission refusals + abandoned setups. *)
  ch_blocking : float;  (** [refused / (established + refused)]. *)
  ch_departed : int;  (** Sessions that left (teardown sent). *)
  ch_active_end : int;  (** Sessions still established at the end. *)
  ch_expired : int;  (** Reservations reclaimed by refresh timeout. *)
  ch_retries : int;
  ch_abandoned : int;
  ch_signaling_pps : float;  (** Control packets per second, all kinds. *)
  ch_refresh_share : float;
      (** Fraction of control packets that were refreshes — the soft-state
          overhead knob (RSVP's refresh tax). *)
  ch_slot_hwm : int;  (** Distinct flow ids ever needed. *)
  ch_recycled : int;  (** Sessions that reused an earlier session's id. *)
  ch_leaked : int;
      (** Reservations still held for sessions departed more than the
          reclaim horizon ago — must be 0 in every scenario. *)
  ch_check : Ispn_check.Audit.summary option;  (** Present when [check]. *)
  ch_series : Ispn_obs.Series.export option;
      (** Present when [series]: the scenario's sampled
          timeline — [signaling.established] vs [flows.in_use] vs
          [signaling.expired] is the soft-state expiry-reclaim wave. *)
}

val run_churn :
  ?duration:float ->
  ?seed:int64 ->
  ?j:int ->
  ?check:bool ->
  ?series:bool ->
  unit ->
  churn_row list
(** The soft-state lifecycle under open-loop churn (one row per
    {!churn_scenario}): Poisson session arrivals at 420 per second
    (about 1M cumulative sessions over the four scenarios at the full
    600 s duration), Pareto(1.5) holding times with mean 2 s, a
    15/25/60 guaranteed/predicted/datagram mix on uniform spans of the
    5-switch chain.  Flow ids come from an {!Ispn_util.Idpool} and are
    recycled after a quarantine of one soft-state lifetime plus two sweep
    periods past departure.  With [check], each row carries a finalized
    audit (including the [flow-state] leak invariant over every agent's
    book, the session ledger and the id pool).  Shapes to expect:
    [ch_leaked] is 0 everywhere; [ch_expired] is 0 in the clean scenario
    and positive wherever teardowns are lost or agents die; blocking rises
    under faults (abandoned setups count as refusals).  Deterministic for
    a given [seed] at every [j]. *)

(** {2 E14: sharded parking-lot at scale} *)

type scale_row = {
  sc_span : int;  (** Regions crossed by the flows in this bucket. *)
  sc_flows : int;
  sc_delivered : int;
  sc_mean_delay : float;  (** End-to-end, in packet transmission times. *)
  sc_max_delay : float;
  sc_mean_qdelay : float;  (** Queueing share of the mean delay. *)
}

type scale_report = {
  sc_rows : scale_row list;  (** One per span bucket, ascending. *)
  sc_switches : int;
  sc_links : int;
  sc_flow_count : int;
  sc_delivered_total : int;
  sc_sent : int;  (** Link transmissions, summed over all links. *)
  sc_dropped : int;
  sc_shards : int;  (** The remaining fields describe the sharded run
                        itself and are reported on stderr only — they
                        (and host wall time) are the only quantities
                        that legitimately vary with [shards]. *)
  sc_windows : int;
  sc_lookahead : float;
  sc_cut_links : int;
  sc_exchanged : int;  (** Packets marshalled across shard boundaries. *)
  sc_fired : int;
  sc_check : Ispn_check.Audit.summary option;  (** Present when [check]. *)
  sc_metrics : Ispn_obs.Metrics.snapshot option;
      (** Present when [metrics]: the per-link instruments ([link.<i>.*],
          plus [hist.link.<i>.wait.*] under [series]). *)
  sc_series : Ispn_obs.Series.export option;  (** Present when [series]. *)
}

val run_scale :
  ?duration:float ->
  ?seed:int64 ->
  ?shards:int ->
  ?flows:int ->
  ?check:bool ->
  ?metrics:bool ->
  ?series:bool ->
  unit ->
  scale_report
(** One large simulation partitioned over OCaml 5 domains
    ({!Ispn_sim.Shardnet}): a parking-lot chain of 4 regions of 5
    switches — 20 switches, 38 duplex links at 10 Mbit/s — carrying
    [flows] (default 2000) on/off flows of 8 pkt/s average between
    uniformly random switches.  Backbone links between regions
    have ~10 ms propagation delays and become the cut links; each link's
    delay carries a distinct index-proportional skew so cross-path
    arrivals never tie on an exact float instant, which is what makes the
    report a pure function of [(seed, duration)]: every field except the
    stderr-only shard diagnostics is byte-identical for every [shards]
    (CI gates [--shards 1] vs [--shards 4] with [cmp]).  Per-flow PRNG
    streams are split off the master in flow order before any shard
    starts.  [shards] must divide the regions into contiguous blocks
    ([1 <= shards <= 4]).  With [check], [metrics] and [series],
    each shard instruments itself and the exports merge
    ({!Instr.run_sharded}): the audit must be violation-free, and the
    snapshot and series are byte-identical at every width.  Shapes to
    expect: mean delay grows with span (propagation dominates; ~10 ms per
    backbone hop), queueing delay stays a small share at this load, and
    drops are rare. *)
