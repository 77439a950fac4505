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

val pump_meters :
  t ->
  epoch_interval:float ->
  meter:(int -> Ispn_admission.Meter.t) ->
  epoch:(unit -> unit) ->
  unit
(** Section 9's measurement pump: every [epoch_interval] seconds from
    now, note each link's real-time bits over
    [Units.link_rate_bps * epoch_interval] into [meter link], then call
    [epoch ()]. *)

(** {2 Constructors}

    Both build every link with the unified scheduler (link [i] named
    [L-<i+1>], with [Link.id] [i]) from {!Csz_sched.default_config} with
    the given class count (default 2), at [Units.link_rate_bps] over a
    [Units.buffer_packets] pool: the rate {!pump_meters} and the
    admission controller assume. *)

val chain :
  engine:Ispn_sim.Engine.t -> n_switches:int -> ?n_classes:int -> unit -> t
(** The Figure-1 shape: switches 0..n-1, link [i] from switch [i] to
    [i+1]. *)

val topology :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  links:(int * int) list ->
  ?n_classes:int ->
  unit ->
  t
(** Arbitrary directed links, link [i] being entry [i] of [links]
    (fewest-hop routed).  Raises [Invalid_argument] on duplicate links,
    self-loops and out-of-range endpoints, as {!Ispn_sim.Network.create}. *)
