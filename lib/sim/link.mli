(** Store-and-forward output link.

    A link serializes packets at a fixed bit rate from its qdisc, then hands
    them to the downstream receiver after a propagation delay.  The paper's
    switches are output-queued: each inter-switch link has one qdisc and a
    200-packet buffer.

    Per-hop queueing delay is defined as the time from arrival at the qdisc
    to the start of transmission (the scheduling-dependent part of the
    delay); the link accumulates it into [Packet.qdelay_total], which is the
    quantity the paper's tables report summed over a path.

    Every monitor, the flight recorder included, observes the link
    through its one {!Tap} hook. *)

type t

val create :
  engine:Engine.t ->
  rate_bps:float ->
  ?prop_delay:float ->
  ?id:int ->
  qdisc:Qdisc.t ->
  name:string ->
  unit ->
  t
(** The receiver is attached afterwards with {!set_receiver} so that
    topologies with cycles of references can be wired up.  [id] (default 0)
    is the hop index passed to taps and used in metric names;
    {!Network.create} gives link [i] of its list the id [i], so ids are
    distinct within a network. *)

val set_receiver : t -> (Packet.t -> unit) -> unit
val name : t -> string

val id : t -> int
(** The hop index given at {!create}. *)

val qdisc : t -> Qdisc.t

val send : t -> Packet.t -> unit
(** Enqueue a packet for transmission; starts the transmitter if idle.
    Raises [Failure] if no receiver has been attached. *)

val set_tap : t -> Tap.t -> unit
(** Attach a {!Tap} monitor; its callbacks fire on qdisc accept, dequeue
    (with this hop's wait), transmitter-idle (with the qdisc's backlog),
    delivery and every drop.  A tap never changes the simulation; links
    without one pay one [match] per event.
    Replaces any tap already attached; independent consumers should use
    {!add_tap}. *)

val add_tap : t -> Tap.t -> unit
(** Like {!set_tap}, but composes with any tap already attached (via
    {!Tap.seq}, earlier attachments firing first) instead of replacing it —
    so the invariant auditor and the delay histograms can observe the same
    link in one run. *)

val attach_recorder : t -> Ispn_obs.Recorder.t -> unit
(** {!add_tap} a tap that writes this link's events into the ring, by the
    schema {!Ispn_obs.Recorder} documents. *)

val tapped : t -> bool
(** Whether any tap is attached: false means the packet path pays only
    the [match] per event. *)

(** {2 Failure model} *)

val set_up : t -> bool -> unit
(** Take the link down or bring it back up.  While down the transmitter is
    stopped: packets still enqueue (and overflow drops still fire), the
    frame being serialized when the failure hits is lost (a drop), and
    nothing is delivered.  On repair the transmitter restarts
    immediately from the backlog (and the qdisc waker keeps working for
    non-work-conserving schedulers).  Links start up; redundant transitions
    are no-ops. *)

val is_up : t -> bool

val set_wire_filter : t -> (Packet.t -> Packet.t option) -> unit
(** Install a transformation applied to every packet at delivery time
    (after serialization and propagation), modelling the physical wire.
    Returning [None] discards the packet as a drop (counted in
    {!dropped}); [Some p] delivers [p] — filters may mutate the packet in
    place.
    Used by [Ispn_faults] to corrupt headers via [Wire.encode]/[decode]. *)

(** {2 Accounting} *)

val sent : t -> int

val dropped : t -> int
(** Total losses; {!drops_buffer} + {!drops_down} + {!drops_wire}. *)

val drops_buffer : t -> int
(** Qdisc rejections (buffer pool exhausted or late-discard policy). *)

val drops_down : t -> int
(** Frames in flight when the link went down. *)

val drops_wire : t -> int
(** Packets discarded by the wire filter at delivery time. *)

val utilization : t -> elapsed:float -> float
(** Seconds spent transmitting over [elapsed]. *)

val wait_stats : t -> Ispn_util.Stats.t
(** Per-hop queueing (waiting) delays of all packets sent on this link. *)

val register_metrics : t -> Ispn_obs.Metrics.t -> prefix:string -> unit
(** Register this link's counters under [prefix]: [.sent],
    [.drops.buffer|down|wire], [.busy_time], [.qdisc.len] and the
    [.wait.*] summary of {!wait_stats}.  Pull-based: nothing is touched on
    the packet path. *)
