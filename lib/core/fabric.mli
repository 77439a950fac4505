(** A routed graph of CSZ-scheduled links — the substrate the {!Service}
    layer manages.

    The paper's experiments run on the Figure-1 chain, but the architecture
    is topology-agnostic: every output link runs the unified scheduler and
    admission control reasons per-link along a flow's path.  A fabric is
    exactly that: an {!Ispn_sim.Network.t} (routes, flow installation,
    injection) plus each link's {!Csz_sched} state. *)

type t

val network : t -> Ispn_sim.Network.t
(** The routed graph underneath, for code written against
    {!Ispn_sim.Network}. *)

val engine : t -> Ispn_sim.Engine.t
val n_links : t -> int
val n_switches : t -> int
val sched : t -> link:int -> Csz_sched.t
val link : t -> int -> Ispn_sim.Link.t

val path : t -> ingress:int -> egress:int -> int list option
(** {!Ispn_sim.Network.path}: link indices a flow from [ingress] to
    [egress] traverses; [None] when unreachable or out of range, [Some []]
    when [ingress = egress]. *)

val install_flow :
  t -> flow:int -> ingress:int -> egress:int -> sink:(Ispn_sim.Packet.t -> unit) ->
  unit
(** {!Ispn_sim.Network.install_flow}: raises [Failure] when no path exists
    and [Invalid_argument] for an out-of-range switch id. *)

val inject : t -> at_switch:int -> Ispn_sim.Packet.t -> unit

(** {2 The per-hop and per-edge halves of an admitted request} *)

val grant :
  t -> link:int -> flow:int -> Ispn_admission.Spec.request -> cls:int option ->
  unit
(** Install an admitted flow's service at [link]'s scheduler: a guaranteed
    request's clock rate, or the predicted class [cls] the controller
    granted; nothing for datagram.  Raises [Invalid_argument] as
    {!Csz_sched.add_guaranteed} and {!Csz_sched.set_predicted} do. *)

val edge :
  t -> ingress:int -> Ispn_admission.Spec.request -> Ispn_sim.Packet.t -> unit
(** [edge t ~ingress spec] is an admitted flow's entry point at switch
    [ingress]: a predicted flow's packets pass a Drop-mode policer of its
    declared bucket, built here once (Section 8: the edge, and only the
    edge, enforces the traffic commitment); guaranteed and datagram
    packets are injected as they come. *)

val feed_meters :
  t ->
  meter:(int -> Ispn_admission.Meter.t) ->
  epoch:(unit -> unit) ->
  unit ->
  unit
(** Section 9's measurement feed, the one place a scheduler feeds a meter.
    From now on each link's scheduler notes every predicted-class queueing
    delay into [meter link] (guaranteed and datagram packets are not
    noted).  The returned function starts the utilization pump: every
    second from the moment it is called, note each link's real-time bits
    over [Units.link_rate_bps * 1 s] into [meter link], then call
    [epoch ()].  Call it once. *)

(** {2 Constructors}

    Both build every link with the unified scheduler (link [i] named
    [L-<i+1>], with [Link.id] [i]) from {!Csz_sched.default_config}, whose
    two predicted classes are those of [Spec.class_targets], at
    [Units.link_rate_bps] over a [Units.buffer_packets] pool: the rate
    {!feed_meters} and the admission controller assume. *)

val chain : engine:Ispn_sim.Engine.t -> n_switches:int -> unit -> t
(** The Figure-1 shape: switches 0..n-1, link [i] from switch [i] to
    [i+1]. *)

val topology :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  links:(int * int) list ->
  unit ->
  t
(** Arbitrary directed links, link [i] being entry [i] of [links]
    (fewest-hop routed).  Raises [Invalid_argument] on duplicate links,
    self-loops and out-of-range endpoints, as {!Ispn_sim.Network.create}. *)
