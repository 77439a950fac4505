(** Packet switch with static per-flow routing.

    The paper's experiments use fixed paths over a chain of switches
    (Figure 1), so routing is a per-flow lookup table installed at flow
    setup time — the simulator does not model a routing protocol. *)

type port =
  | Forward of Link.t  (** Queue the packet on an output link. *)
  | Deliver of (Packet.t -> unit)  (** Hand to a locally attached host. *)

type t

val create : name:string -> t

val add_route : t -> flow:int -> port -> unit
(** Later calls overwrite earlier ones for the same flow. *)

val receive : t -> Packet.t -> unit
(** Increment the packet's hop count and forward it.  Raises [Failure] for a
    flow with no route (a wiring bug, not a runtime condition). *)

val received : t -> int
(** Total packets this switch has handled. *)
