(** Measurement-based admission control (Section 9): one link's agent.

    Two criteria gate every real-time admission at the link:

    + {b Datagram quota}: at most 90% of the link may be taken by real-time
      traffic — [r + nu_hat < 0.9 mu] — so datagram service always makes
      progress and a bandwidth pool exists for fluctuations.
    + {b Delay protection}: the new flow's worst-case burst must not push
      any equal-or-lower-priority class over its target —
      [b < (D_j - d_hat_j) (mu - nu_hat - r)] for every class [j] at or
      below the requested priority (a guaranteed commitment counts as higher
      priority than every class).

    [nu_hat] and [d_hat_j] come from the link's {!Meter} — measurements of
    the running traffic, not declared models.  Only the {e new} flow is
    accounted at its declared worst case, and only until the measurement
    window has had time to observe it (the paper's "once the new flow starts
    running ... base further admission decisions on the most recent
    measurement").

    The rule is local: every switch decides for its own outgoing link.  A
    path is admitted when every link on it admits, which is the caller's
    loop: [Signaling] walks it one agent per hop, [Service] tests every
    link with {!decide} before it books any with {!request}. *)

type t

type decision = Admitted of { cls : int option } | Rejected of string
(** [cls] is the assigned priority class for predicted flows ([None] for
    guaranteed and datagram). *)

val create : unit -> t
(** The link runs at [Units.link_rate_bps] ([mu]) and its switch serves
    the classes of {!Spec.class_targets} ([D_j]).  Real-time traffic may
    use at most 90% of it (a 10% datagram quota), and the meter remembers
    the last 8 epochs. *)

val meter : t -> Meter.t
(** The link's meter; the network feeds it and the controller reads it. *)

val epoch : t -> unit
(** Advance the measurement window one epoch (rotates the meter and
    graduates recently admitted flows from declared-rate to measured
    accounting). *)

val decide : t -> hops:int -> Spec.request -> decision
(** What {!request} would answer now, booking nothing.  [hops] is the
    length of the flow's path: a predicted flow is placed in the cheapest
    (lowest priority) class whose per-switch target, summed over [hops]
    switches, still meets its end-to-end delay target.  Datagram requests
    are always admitted.  Raises [Invalid_argument] if [hops < 1]. *)

val request : t -> flow:int -> hops:int -> Spec.request -> decision
(** {!decide}, and book [flow] here if admitted.  Raises
    [Invalid_argument] if [flow] is already admitted or [hops < 1]. *)

val release : t -> flow:int -> unit
(** Tear down a flow's reservation; unknown flows are ignored. *)

val mem : t -> flow:int -> bool
(** Whether [flow] is currently admitted — lets a signaling agent re-assert
    reservations idempotently after a failure (skip hops that survived,
    re-request only at hops that forgot). *)

val reset : t -> unit
(** Release-on-failure: forget every admitted flow and zero the guaranteed
    reservations, as a crashed switch agent losing its soft state would.
    The meter is deliberately kept — it belongs to the forwarding plane,
    which keeps running — so post-crash admission decisions immediately
    re-converge on measured load rather than restarting from an empty
    window. *)

val guaranteed_reserved_bps : t -> float
(** The clock rates of the guaranteed flows booked here. *)

(** {2 Soft-state leak accounting}

    Cumulative counters for the [flow-state] audit invariant: at every
    instant [admissions t = releases t + live t].  Every successful
    {!request} (datagram records included) counts one admission; every
    effective {!release} counts one release; {!reset} counts its whole
    wiped book as releases. *)

val admissions : t -> int
val releases : t -> int

val live : t -> int
(** Flow records currently in the book (all service classes). *)

val live_flows : t -> int list
(** The admitted flow ids, sorted ascending (deterministic regardless of
    admission order) — for end-of-run leak sweeps. *)
