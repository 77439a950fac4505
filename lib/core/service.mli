(** End-to-end service architecture: interface + admission + enforcement +
    scheduling.

    This module wires the pieces of the CSZ architecture together over a
    {!Fabric} (a chain or an arbitrary routed topology whose links all run
    the unified scheduler): every link has a measurement
    {!Ispn_admission.Meter} fed by the scheduler's delay hook and by
    periodic utilization sampling, and a {!Ispn_admission.Controller}
    arbitrates requests.  Admitted predicted flows are policed against
    their declared token bucket at the edge (and only there — Section 8);
    guaranteed flows are never conformance-checked; datagram traffic flows
    freely.

    This is the API an application uses: ask for service, get back an
    advertised delay bound and an injection function, send packets. *)

type t

val create :
  engine:Ispn_sim.Engine.t ->
  n_switches:int ->
  ?class_targets:float array ->
  ?epoch_interval:float ->
  unit ->
  t
(** A chain fabric (the Figure-1 shape) of [Units.link_rate_bps] links
    with [Units.buffer_packets] buffers: the rate admission control and
    the utilization meters assume.  [class_targets] are the
    per-switch predicted-service delay targets [D_i], seconds, increasing
    (default [| 0.008; 0.064 |] — two widely spaced classes, roughly an
    order of magnitude apart as Section 7 recommends).  [epoch_interval]
    (default 1 s) is the measurement rotation period; the first call to
    {!start} begins the sampling pump. *)

val create_on :
  fabric:Fabric.t ->
  ?class_targets:float array ->
  ?epoch_interval:float ->
  unit ->
  t
(** Manage an existing fabric (e.g. one built with {!Fabric.topology}).
    The number of class targets must match the fabric's predicted class
    count. *)

val start : t -> unit
(** Start the periodic measurement/epoch pump. *)

val fabric : t -> Fabric.t
val sched : t -> link:int -> Csz_sched.t

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
val rejected : t -> int
