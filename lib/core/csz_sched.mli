(** The unified CSZ scheduling algorithm (Section 7).

    One qdisc that serves all three service commitments at a switch's
    output link:

    - Every {e guaranteed} flow is its own WFQ flow with clock rate
      [r_alpha] — the isolation layer.  Finish tags follow the GPS virtual
      time shared with pseudo-flow 0.
    - All {e predicted} and {e datagram} traffic forms pseudo-flow 0, whose
      clock rate is the leftover [r_0 = mu - sum r_alpha].  Inside flow 0
      sit [K] strict-priority classes each running FIFO+ (the sharing
      layer), with datagram traffic as an extra class below them all
      (served plain FIFO: its packets never carry jitter offsets).

    Because FIFO+ reorders within flow 0, flow 0's packets cannot be
    tag-stamped at arrival like guaranteed packets; instead the current
    flow-0 head (highest-priority earliest-deadline packet) is stamped
    lazily when it first contends for the link, with
    [max (V, F_0) + size / r_0] — a self-clocked approximation that keeps
    the isolation property exact in the direction that matters: guaranteed
    flows can never be displaced by more than one flow-0 packet beyond
    their GPS schedule, and flow 0 as an aggregate can never exceed its
    [r_0] share while guaranteed flows are backlogged.

    The number of packet buffers is shared across everything at the link
    (the paper's 200-packet switch buffer). *)

type config = {
  link_rate_bps : float;
  n_predicted_classes : int;  (** [K]; datagram sits below class [K-1]. *)
  ewma_gain : float;  (** FIFO+ class-average gain (default 1/4096; see {!Ispn_sched.Fifo_plus}). *)
  discard_late_above : float option;
      (** Section 10 late-discard threshold on the jitter offset, seconds. *)
}

val default_config : config
(** 1 Mbit/s, [K = 2], gain 1/4096, no late discard. *)

type t
(** Scheduler state, kept alongside the qdisc for inspection and dynamic
    flow management. *)

val create :
  ?config:config ->
  ?metrics:Ispn_obs.Metrics.t ->
  ?label:string ->
  pool:Ispn_sim.Qdisc.pool ->
  unit ->
  t * Ispn_sim.Qdisc.t
(** [metrics], when given, registers this scheduler's instruments under
    [csz.<label>] (label defaults to ["0"], conventionally the link index):
    pull gauges [.vtime], [.reserved_bps], [.flow0_rate_bps],
    [.late_discards], [.realtime_bits], [.datagram_bits], [.g_backlog],
    [.f0_backlog], per-class [.class.<c>.avg_delay] and [.class.<c>.len],
    plus a push distribution [.class.<c>.offset.*] of the jitter offset
    each departing predicted-class packet carries (one [Stats.add] per
    dequeue; a single [option] branch when metrics are off). *)

(** {2 Flow management}

    Flows unknown to the scheduler are treated as datagram traffic. *)

val add_guaranteed : t -> flow:int -> clock_rate_bps:float -> unit
(** Reserve [clock_rate_bps] for [flow].  Raises [Invalid_argument] if the
    flow is already registered or if the reservation would exhaust the link
    (flow 0 must keep a positive rate). *)

val remove_guaranteed : t -> flow:int -> unit
(** Release a reservation.  If the flow still has packets queued they are
    served under the old reservation and the flow is unregistered once it
    drains.  Raises [Invalid_argument] for an unknown flow. *)

val is_guaranteed : t -> flow:int -> bool
(** Whether [flow] holds a reservation here, including one released while
    its packets drain: exactly when {!remove_guaranteed} does not raise. *)

val set_predicted : t -> flow:int -> cls:int -> unit
(** Put [flow] in predicted class [cls] (0 = highest priority). *)

val clear_predicted : t -> flow:int -> unit
(** Back to datagram treatment. *)

(** {2 Inspection} *)

val guaranteed_reserved_bps : t -> float
val flow0_rate_bps : t -> float
val class_avg_delay : t -> cls:int -> float
(** FIFO+ average queueing delay of predicted class [cls] at this switch. *)

val late_discards : t -> int
val datagram_class : t -> int
(** Index [K] — useful with {!set_delay_hook}. *)

val realtime_bits_sent : t -> int
(** Bits transmitted for guaranteed + predicted traffic (admission meters
    sample deltas of this). *)

val datagram_bits_sent : t -> int

val set_delay_hook : t -> (cls:int -> float -> unit) -> unit
(** Called with every flow-0 packet's queueing delay at dequeue; [cls] is
    the predicted class or {!datagram_class}.  Guaranteed packets are
    reported with [cls = -1]. *)
