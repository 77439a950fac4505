(** Runtime conformance auditor for the invariants the paper relies on.

    An audit context consumes the {!Ispn_sim.Tap} event stream of one run
    and checks, continuously and at report time:

    - {b conservation} — per link and network-wide, every accepted packet
      is either still queued, in flight, delivered, or accounted to a
      drop cause; nothing is created or silently lost.
    - {b pool} — buffer-pool accounting: takes = releases + in-use, never
      negative, high-water never above capacity, and the pool's in-use
      count equals the qdisc's reported backlog (no leaked buffers).
    - {b work-conservation} — a work-conserving scheduler may not leave
      the transmitter idle while packets are queued (Stop-and-Go, HRR,
      Jitter-EDD, CBS and ATS are exempt by design).
    - {b delay} — per-hop waits and accumulated queueing delays are
      monotone non-negative.
    - {b token-bucket} — traffic observed at a policed flow's ingress
      link conforms to its [(r, b)] envelope; the model replays the edge
      policer's exact arithmetic.
    - {b delay-bound} — a registered flow's end-to-end queueing delay
      never exceeds its analytic bound, checked per delivered packet at
      the flow's egress link: the Parekh–Gallager bound for guaranteed
      WFQ flows and the bake-off shapers' network-calculus bounds
      (Mohammadpour et al. for CBS/ATS, Constantin et al. for WRR,
      Jiang–Misra for multiclass FIFO; formulas in [Ispn_util.Analytic],
      catalogue in DESIGN.md §9).  One counter for every kind; a
      violation sample names its bound ([PG], [CBS], ...).
    - {b flow-state} — soft-state leak accounting for every registered
      reservation book and flow-slot pool: live = admitted − released,
      never negative, with zero bad releases (see
      {!register_flow_state}).

    Like [Ispn_obs], auditing is opt-in and free when off: without an
    attached context the packet path pays one [match] per event, and
    stdout is untouched.  Each parallel experiment job owns its private
    context ({!summary} values are plain data merged in job order), so
    [--check] output is [-j]-independent. *)

type t

val create : unit -> t
(** A fresh context.  It takes the calling domain's packet-arena baseline
    and {!finalize} reads that domain's arena, so create and finalize a
    context in the domain whose simulation it audits (arenas are
    domain-local). *)

(** {2 Attachment} *)

val attach_link : t -> ?work_conserving:bool -> Ispn_sim.Link.t -> unit
(** Install this context's tap on the link and register its qdisc for the
    report-time checks.  [work_conserving] overrides the classification
    by scheduler name (see {!work_conserving_name}). *)

val register_pool : t -> link:int -> Ispn_sim.Qdisc.pool -> unit
(** Enable the buffer-accounting checks for a link's pool; may be called
    before {!attach_link} (pools are built inside qdisc factories).  The
    in-use-equals-backlog cross-check needs the link attached too. *)

val register_policed_flow :
  t -> flow:int -> link:int -> rate_bps:float -> depth_bits:float -> unit
(** Check every packet of [flow] arriving at [link] (its first hop)
    against a token bucket [(rate_bps, depth_bits)] that starts full. *)

type bound_kind = Pg | Cbs | Ats | Wrr | Mc_fifo
(** Which analytic bound a registered flow is held to: the
    Parekh–Gallager WFQ bound or one of the bake-off shaper bounds.  It
    names the bound in violation samples; every kind feeds the one
    [delay-bound] counter. *)

val register_delay_bound :
  t -> kind:bound_kind -> flow:int -> link:int -> bound_s:float -> unit
(** Check every packet of [flow] delivered by [link] (its egress hop)
    against the end-to-end queueing-delay bound [bound_s] (seconds),
    under the [delay-bound] invariant.  A flow holds at most one bound;
    re-registering replaces it. *)

val register_flow_state :
  t ->
  label:string ->
  admitted:(unit -> int) ->
  released:(unit -> int) ->
  live:(unit -> int) ->
  ?bad:(unit -> int) ->
  unit ->
  unit
(** Register one soft-state book for the report-time [flow-state] leak
    check: [admitted () = released () + live ()] and [live () >= 0] must
    hold when {!finalize} runs, and [bad ()] (when given — double or
    out-of-range releases) must be zero.  Used by
    [Csz.Signaling.register_audit] for every agent's admission book and
    by the churn workload for its [Ispn_util.Idpool] flow-slot pool;
    the closures are read only at {!finalize}. *)

val work_conserving_name : string -> bool
(** Classification used by {!attach_link}: every scheduler name except
    Stop-and-Go, HRR, Jitter-EDD, CBS and ATS is treated as
    work-conserving. *)

val tap : t -> Ispn_sim.Tap.t
(** The raw tap, for driving the auditor without a link (tests). *)

(** {2 Results} *)

type inv_summary = { inv_name : string; inv_checks : int; inv_violations : int }

type summary = {
  events : int;  (** Tap events consumed. *)
  checks : int;  (** Individual invariant evaluations, incl. report-time. *)
  violations : int;
  invariants : inv_summary list;  (** Fixed catalogue order. *)
  samples : string list;  (** First few violation messages, oldest first. *)
}

val finalize : t -> summary
(** Run the report-time checks (conservation totals, pool accounting
    against current backlogs) and snapshot the counters.  Call once, when
    the run's engine has drained. *)

val footer_lines : label:string -> summary -> string list
(** Render as [\[check\]]-prefixed report lines: one summary line, plus
    per-invariant counts and violation samples when anything failed. *)
