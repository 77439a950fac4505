(** End-to-end service architecture: interface + admission + enforcement +
    scheduling.

    This module wires the pieces of the CSZ architecture together over a
    {!Fabric} (a chain or an arbitrary routed topology whose links all run
    the unified scheduler): every link has its own
    {!Ispn_admission.Controller}, whose meter {!Fabric.feed_meters} feeds,
    and a request is admitted when every link on its path admits it (each
    link is asked before any books, so a refusal books nothing).  Admitted
    predicted flows are policed against
    their declared token bucket at the edge (and only there — Section 8);
    guaranteed flows are never conformance-checked; datagram traffic flows
    freely.

    This is the API an application uses: ask for service, get back an
    advertised delay bound and an injection function, send packets. *)

type t

val create :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  unit ->
  t
(** A chain fabric (the Figure-1 shape) of [Units.link_rate_bps] links
    with [Units.buffer_packets] buffers: the rate admission control and
    the utilization meters assume.  The per-switch predicted-service
    delay targets [D_j] are [Spec.class_targets].  Class delays feed the
    meters from creation on; the measurement rotation period is 1 s, and
    the first call to {!start} begins the sampling pump. *)

val create_on : fabric:Fabric.t -> unit -> t
(** Manage an existing fabric (e.g. one built with {!Fabric.topology}). *)

val start : t -> unit
(** Start the periodic measurement/epoch pump. *)

val fabric : t -> Fabric.t
val sched : t -> link:int -> Csz_sched.t

val controller : t -> link:int -> Ispn_admission.Controller.t
(** The admission agent of link [link]. *)

type established = {
  flow : int;
  advertised_bound : float option;
      (** Seconds.  Guaranteed: the Parekh-Gallager bound (when the caller
          supplied its own bucket); predicted: the sum of class targets
          along the path. *)
  cls : int option;  (** Assigned predicted class. *)
  emit : Ispn_sim.Packet.t -> unit;
      (** Edge entry point: policing (predicted only) then injection. *)
}

val request :
  t ->
  flow:int ->
  ingress:int ->
  egress:int ->
  ?own_bucket:Ispn_admission.Spec.bucket ->
  Ispn_admission.Spec.request ->
  sink:(Ispn_sim.Packet.t -> unit) ->
  (established, string) result
(** Ask for service from switch [ingress] to switch [egress].
    [own_bucket] lets a guaranteed client communicate its private traffic
    characterization so the advertised bound can be computed (the network
    itself never uses it).  Fails with an explanation when the path does
    not exist or admission control refuses. *)

val teardown : t -> flow:int -> unit
(** Release the flow's reservations and class assignments. *)

val admitted : t -> int
(** Real-time flows established and not torn down. *)

val rejected : t -> int
(** Real-time requests refused by admission control so far (requests
    with no route are not counted). *)
