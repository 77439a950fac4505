(** Hop-by-hop service establishment — the paper's fourth architectural
    component, realized.

    Section 1 names "the means by which the traffic and service commitments
    get established" as the final part of the architecture and Section 9
    explicitly leaves "the negotiation process" unspecified.  This module
    supplies an example mechanism in the spirit the authors' line of work
    later took (RSVP): a {e setup} message carrying the service request
    travels the flow's path as a real control packet through each link's
    datagram class, each switch's agent runs the Section 9 admission test
    for its own outgoing link and installs the reservation before
    forwarding; the egress agent returns a confirmation, and a mid-path
    refusal sends a teardown back along the hops already reserved, rolling
    them back.

    Consequences the instant central {!Service} cannot exhibit, and tests
    do: setup takes real network time (it queues behind data traffic);
    concurrent setups race and serialize in arrival order at each hop; a
    refusal at hop [k] leaves no residue at hops [< k].

    Control packets are 500 bits and travel in-band; confirmations and
    teardowns return on the uncongested reverse path (fixed per-hop delay),
    consistent with the paper's one-directional data plane.

    {b Robustness.}  The control plane assumes nothing about the wire.
    Every setup message carries a retransmission timer: if neither grant
    nor refusal comes back before [setup_timeout], the message is resent
    over the hops already reserved with exponential backoff (the old
    message's token is invalidated first, so a copy that was merely delayed
    cannot double-reserve), and after [max_retries] retransmissions the
    setup is abandoned with a full rollback.  Agents themselves can crash
    ({!crash_agent}): the crash wipes the agent's soft reservation state,
    and every established flow through it re-asserts its reservation
    idempotently — hops that survived keep their grant, hops that forgot
    are re-requested.  If re-admission fails (the capacity went to someone
    else meanwhile), the flow degrades one service rung at a time,
    guaranteed -> predicted -> datagram, per Section 2's tolerant adaptive
    clients, rather than being cut off.  A degraded flow keeps its original
    ingress policer; only its scheduling class and reservations weaken.

    {b Soft state.}  With [?refresh_interval] given to {!deploy}, every
    reservation is {e soft} in the RSVP sense: each agent stamps a flow's
    reservation whenever it grants or re-asserts it, the ingress agent
    sends a periodic refresh message down the path re-stamping every hop,
    and a sweep at each agent expires any reservation not stamped within
    [refresh_interval * lifetime_epochs].  Teardown on session departure
    ({!depart}) is itself an in-band, fire-and-forget message: a lost leg
    strands reservations downstream, and the refresh timeout — not any
    reliable protocol — reclaims them.  The same mechanism heals agent
    crashes and partitions: a refresh pass that finds a hop has forgotten
    the flow ends in the idempotent re-assert (degrading if capacity is
    gone), so the system converges on the correct reservation state from
    {e any} combination of lost teardowns, lost refreshes, and wiped
    agents, purely by timers. *)

type t
(** A fabric with a signaling agent deployed at every switch. *)

val deploy :
  fabric:Fabric.t ->
  ?class_targets:float array ->
  ?epoch_interval:float ->
  ?reverse_hop_delay:float ->
  ?setup_timeout:float ->
  ?max_retries:int ->
  ?refresh_interval:float ->
  ?lifetime_epochs:int ->
  unit ->
  t
(** Attach agents to every switch of [fabric] (each owns the admission
    state of its outgoing links) and start their measurement pumps.
    [class_targets] defaults to [| 0.008; 0.064 |]; [reverse_hop_delay] to
    1 ms; [setup_timeout] (the base retransmission timeout, doubled per
    attempt) to 50 ms; [max_retries] to 4.  Passing [refresh_interval]
    turns soft state on: every established flow refreshes its path that
    often, and each agent expires reservations not re-stamped within
    [refresh_interval * lifetime_epochs] ([lifetime_epochs] defaults to 3,
    RSVP's K).  Raises [Invalid_argument] immediately if [class_targets]
    is empty, non-positive or not strictly increasing — rather than
    failing deep inside [Controller.create] on the first setup — if
    [epoch_interval] is not positive and finite (the measurement pump
    reschedules itself every epoch), if [reverse_hop_delay] is negative or
    not finite, or if [setup_timeout], [refresh_interval] or
    [lifetime_epochs] is non-positive. *)

val fabric : t -> Fabric.t

type established = {
  flow : int;
  cls : int option;  (** Predicted class, as granted hop-by-hop. *)
  advertised_bound : float option;
      (** Guaranteed: Parekh-Gallager (if [own_bucket] given); predicted:
          summed class targets. *)
  setup_time : float;  (** Seconds the three-way establishment took. *)
  emit : Ispn_sim.Packet.t -> unit;  (** Edge-policed injection. *)
}

val setup :
  t ->
  flow:int ->
  ingress:int ->
  egress:int ->
  ?own_bucket:Ispn_admission.Spec.bucket ->
  Ispn_admission.Spec.request ->
  sink:(Ispn_sim.Packet.t -> unit) ->
  on_result:((established, string) result -> unit) ->
  unit
(** Launch the setup message; [on_result] fires when the confirmation (or
    the refusal) arrives back at the ingress, which takes at least one
    control-packet transmission per hop.  A lost or corrupted setup message
    is retransmitted with backoff; if the path stays dark past the retry
    budget, [on_result] gets [Error "setup timed out at hop ..."] and every
    reservation made so far is rolled back.  Raises [Invalid_argument] when
    a setup for [flow] is already in flight, or when [flow] is negative
    (the agents' books are indexed by flow id). *)

val teardown : t -> flow:int -> unit
(** Release an established flow's reservations at every hop (immediate;
    teardown signaling latency is not modelled on the release side).  The
    reliable variant — use {!depart} for the realistic one. *)

val depart : t -> flow:int -> unit
(** The session leaves: release the ingress hop locally and send a
    fire-and-forget teardown message down the path, each agent releasing
    its hop and forwarding.  If a leg is lost to corruption or an outage,
    the downstream reservations stay until the refresh timeout expires
    them (requires soft state for that reclaim; without [refresh_interval]
    a lost leg leaks until {!crash_agent} or explicit release).  Unknown
    flows are ignored. *)

val refresh_now : t -> flow:int -> unit
(** Start one refresh pass for an established flow immediately, off its
    periodic schedule — stamps every hop that still holds the reservation
    and ends in an idempotent re-assert if any hop forgot.  Supersedes any
    refresh leg of the previous epoch still on the wire.  Unknown flows
    are ignored. *)

(** {2 Failures and recovery} *)

val crash_agent : t -> switch:int -> unit
(** Crash the reservation agent at [switch] (which owns outgoing link
    [switch] on a chain): its admission book is {!Ispn_admission.Controller.reset}
    and its link's scheduler registrations are wiped — the forwarding plane
    and its meters keep running.  Every established flow routed through the
    dead agent schedules an idempotent re-setup one refresh round trip
    later; flows that no longer pass re-admission degrade (guaranteed ->
    predicted -> datagram) instead of dying.  Raises [Invalid_argument] if
    [switch] owns no outgoing link. *)

type level = Guaranteed | Predicted | Datagram
(** A rung of the degradation ladder. *)

val level_name : level -> string
(** ["guaranteed"], ["predicted"], ["datagram"]. *)

val service_level : t -> flow:int -> level option
(** The rung an established flow currently occupies ([None] if the flow is
    not established); starts at the rung of its original request and only
    moves down, via failed re-admission after a crash. *)

(** {2 Introspection} *)

val established_count : t -> int
(** Flows established right now. *)

val total_established : t -> int
(** Cumulative establishments; with {!teardown_count} and
    {!established_count} this forms the session-level flow-state invariant
    [total = teardowns + established]. *)

val teardown_count : t -> int
(** Sessions removed by {!teardown} or {!depart}. *)

val refused_count : t -> int
(** Setups that came back negative — admission refusals and abandoned
    (timed-out) setups alike. *)

val control_packets_sent : t -> int
(** Setup messages put on the wire (per hop, including retransmissions). *)

val retries : t -> int
(** Setup messages retransmitted after a timeout. *)

val abandoned_count : t -> int
(** Setups given up after exhausting [max_retries]. *)

val crash_count : t -> int
val degraded_count : t -> int
(** Rungs descended across all flows (a guaranteed flow falling to datagram
    counts twice). *)

val reestablished_count : t -> int
(** Post-crash re-assertion passes completed (at any rung). *)

val mean_reestablish_latency : t -> float
(** Mean seconds from crash to completed re-assertion; 0 if none yet. *)

val refresh_epochs : t -> int
(** Refresh passes started (periodic and {!refresh_now}). *)

val refresh_packets_sent : t -> int
(** Refresh messages put on the wire (per hop; also counted in
    {!control_packets_sent}). *)

val teardown_packets_sent : t -> int
(** Teardown messages put on the wire (per hop; also counted in
    {!control_packets_sent}). *)

val expired_count : t -> int
(** Reservations expired by the soft-state sweep, summed over agents. *)

val soft_state_count : t -> link:int -> int
(** Reservations currently stamped at [link]'s agent (0 when soft state is
    off). *)

val controller : t -> link:int -> Ispn_admission.Controller.t
(** The admission controller owned by [link]'s upstream agent, for tests
    and experiments to inspect (e.g. to verify rollback left no residue). *)

val register_metrics :
  t -> Ispn_obs.Metrics.t -> ?prefix:string -> unit -> unit
(** Register every introspection counter above as a pull gauge under
    [<prefix>.] (default ["signaling"]): [.established],
    [.total_established], [.refused], [.teardowns], [.control_packets],
    [.retries], [.abandoned], [.crashes], [.degraded], [.reestablished],
    [.refreshes], [.refresh_packets], [.teardown_packets], [.expired],
    [.reestablish_latency_mean]. *)

val register_audit : t -> Ispn_check.Audit.t -> unit
(** Register every agent's admission book, plus the session-level
    total/teardown/established triple, for the audit's [flow-state] leak
    invariant — after this, a reservation stranded by a lost teardown and
    never reclaimed shows up as a [--check] violation. *)
