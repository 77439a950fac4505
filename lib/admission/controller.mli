(** Measurement-based admission control (Section 9).

    Two criteria gate every real-time admission, applied at each link of the
    requested path:

    + {b Datagram quota}: at most 90% of the link may be taken by real-time
      traffic — [r + nu_hat < 0.9 mu] — so datagram service always makes
      progress and a bandwidth pool exists for fluctuations.
    + {b Delay protection}: the new flow's worst-case burst must not push
      any equal-or-lower-priority class over its target —
      [b < (D_j - d_hat_j) (mu - nu_hat - r)] for every class [j] at or
      below the requested priority (a guaranteed commitment counts as higher
      priority than every class).

    [nu_hat] and [d_hat_j] come from each link's {!Meter} — measurements of
    the running traffic, not declared models.  Only the {e new} flow is
    accounted at its declared worst case, and only until the measurement
    window has had time to observe it (the paper's "once the new flow starts
    running ... base further admission decisions on the most recent
    measurement"). *)

type t

type decision = Admitted of { cls : int option } | Rejected of string
(** [cls] is the assigned priority class for predicted flows ([None] for
    guaranteed and datagram). *)

val create : n_links:int -> unit -> t
(** Every link runs at [Units.link_rate_bps] ([mu]) and every switch
    serves the classes of {!Spec.class_targets} ([D_j]).  Real-time
    traffic may use at most 90% of a link (a 10% datagram quota), and the
    meters remember the last 8 epochs. *)

val meter : t -> link:int -> Meter.t
(** The per-link meter; the network feeds it and the controller reads it. *)

val epoch : t -> unit
(** Advance every link's measurement window one epoch (rotates meters and
    graduates recently admitted flows from declared-rate to measured
    accounting). *)

val request : t -> flow:int -> path:int list -> Spec.request -> decision
(** Ask to admit [flow] over the links in [path], each listed once.
    Datagram requests are always admitted.  A predicted flow is placed in
    the cheapest (lowest priority) class whose per-switch target still
    meets its end-to-end delay target over this path.  Raises
    [Invalid_argument] if [flow] is already admitted or [path] is empty
    for a real-time request. *)

val release : t -> flow:int -> unit
(** Tear down a flow's reservation; unknown flows are ignored. *)

val mem : t -> flow:int -> bool
(** Whether [flow] is currently admitted — lets a signaling agent re-assert
    reservations idempotently after a failure (skip hops that survived,
    re-request only at hops that forgot). *)

val reset : t -> unit
(** Release-on-failure: forget every admitted flow and zero the guaranteed
    reservations, as a crashed switch agent losing its soft state would.
    The meters are deliberately kept — they belong to the forwarding plane,
    which keeps running — so post-crash admission decisions immediately
    re-converge on measured load rather than restarting from an empty
    window. *)

val guaranteed_reserved_bps : t -> link:int -> float
val admitted : t -> int
(** Real-time flows currently admitted. *)

val rejected : t -> int
(** Real-time requests refused so far. *)

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
