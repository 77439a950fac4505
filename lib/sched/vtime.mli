(** GPS virtual time.

    Shared by {!Wfq} and the unified CSZ scheduler.  Virtual time [V(t)]
    advances at rate [C / Phi(t)] where [C] is the link rate and [Phi(t)] the
    summed clock rates of the currently backlogged flows (the fluid-flow
    dynamics of Section 4).  A flow's packet gets finish tag
    [max (V(arrival), previous finish tag of the flow) + size / clock_rate];
    serving packets in increasing tag order approximates GPS.

    The active set is tracked at packet granularity (a flow is active while
    it has packets queued), the standard packetized approximation of the
    fluid model.  When the system drains completely, the busy period ends
    and virtual time resets to zero.

    The previous finish tags live here too, one per caller-chosen integer
    {e slot} (a flow id, or a fixed slot for an aggregate such as CSZ's
    pseudo-flow 0), so the busy-period end can forget them: a tag set in an
    earlier busy period reads as 0.  That forgetting costs one store per
    slot tagged in the ending busy period, never one per slot that exists,
    so a link with a large flow-id range and a light load (a busy period
    per packet) pays for the flows it served, not for every id. *)

type t

val create : link_rate_bps:float -> t

val advance : t -> now:float -> unit
(** Integrate [V] up to [now].  Call before reading {!v} or {!start} or
    changing the active set. *)

val v : t -> float

val start : t -> slot:int -> float
(** [max V tag], the virtual start of [slot]'s next packet, where [tag] is
    the finish tag last stored with {!set_finish} in the current busy
    period (0 if none).  Any non-negative [slot] is valid. *)

val set_finish : t -> slot:int -> float -> unit
(** Store [slot]'s finish tag.  It reads back through {!start} until the
    busy period ends.  Storing [0.] forgets the tag at once. *)

val flow_activated : t -> weight:float -> unit
(** A flow with clock rate [weight] (bits/s) became backlogged. *)

val flow_deactivated : t -> now:float -> weight:float -> unit
(** A flow drained.  When the last flow deactivates the busy period ends:
    [V] resets to 0 and every finish tag is forgotten. *)

val adjust_active : t -> now:float -> delta:float -> unit
(** Change the weight of a currently-active flow in place (the unified
    scheduler re-sizes pseudo-flow 0 when guaranteed reservations change).
    Advances [V] first so past service is accounted at the old weight.

    If the adjustment leaves the summed active weight at (or, through
    float drift, within an epsilon of) zero, the busy period ends exactly
    as in {!flow_deactivated} — [V] resets to 0 and the finish tags are
    forgotten — but the active {e count} is kept: the flows are still
    backlogged and will deactivate through {!flow_deactivated} as they
    drain. *)

val active_weight : t -> float
