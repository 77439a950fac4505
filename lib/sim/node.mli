(** Packet switch with static per-flow routing.

    The paper's experiments use fixed paths over a chain of switches
    (Figure 1), so routing is a per-flow lookup table installed at flow
    setup time — the simulator does not model a routing protocol.

    A switch forwards by route index, not by flow id: {!add_route} gives
    each flow id it sees a dense index in its network's {!index} (the only
    place that inserts into it), the first switch a packet reaches looks
    the packet's flow up once and caches the index in its
    [Packet.arena.route] column, and every later switch reads its own port
    array at that index.  So every switch a packet can reach must share
    one index, and a packet must not cross into another index's switches
    (a packet handed between networks is re-made, as [Shardnet] does).
    Index values depend on the order routes were installed: never print,
    order or hash by them.  A switch must be created, routed and run in
    one domain. *)

type port =
  | Forward of Link.t  (** Queue the packet on an output link. *)
  | Deliver of (Packet.t -> unit)  (** Hand to a locally attached host. *)

type t

type index
(** One network's route index, from flow id to a dense route number.  It
    lives as long as the switches that share it. *)

val index : unit -> index
(** A fresh, empty index: its first routed flow gets index 0. *)

val create : index:index -> name:string -> t
(** A switch routing through [index]. *)

val add_route : t -> flow:int -> port -> unit
(** Later calls overwrite earlier ones for the same flow, also for packets
    already in flight: they take the new port at this switch. *)

val receive : t -> Packet.t -> unit
(** Increment the packet's hop count and forward it.  Raises [Failure] for a
    flow with no route (a wiring bug, not a runtime condition). *)

val received : t -> int
(** Total packets this switch has handled. *)
