(** Discrete-event simulation engine.

    A single mutable clock plus a pending-event store over a
    struct-of-arrays event arena, so scheduling and draining allocate
    nothing per event.  The store is a pair of implicit 4-ary min-heaps,
    near and far: an event whose delay is below the running mean of every
    delay scheduled before it goes near, any other far, and the next event
    is the earlier of the two roots.  So packet-time events sift through a
    heap of their own size instead of one filled with slow timers.  Events
    scheduled for the same instant fire in scheduling order (a strictly
    increasing sequence number breaks ties, across the two heaps too),
    which makes runs deterministic; which heap holds an event changes only
    speed.  A stream of events sorted by construction, such as the packets
    on a wire, goes through a lane (below): a FIFO whose head alone is in
    a heap, under the sequence number it took when it was pushed, so the
    heaps hold one entry per wire instead of one per packet in flight and
    the firing order is unchanged.  Cancellation is by lazy deletion: a
    cancelled event stays queued but is skipped (and its arena slot
    recycled) when it surfaces.
    So that a timer re-armed on every packet (a TCP retransmission timer)
    cannot fill the heaps with dead entries, {!cancel} compacts both once
    cancelled entries outnumber live ones by more than 32: one pass
    discards every cancelled entry and recycles its slot, and each heap is
    rebuilt in place.  The firing order is the same with or without
    compaction. *)

type t

type handle
(** Names a scheduled event so it can be cancelled (e.g. a TCP
    retransmission timer disarmed by an ack). *)

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds. *)

val schedule : t -> at:float -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when the clock reaches [at].  Raises
    [Invalid_argument] if [at] is in the past or NaN; a rejected call
    changes nothing, not even {!pending}. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t +. delay) f];
    [delay] must be non-negative (NaN is rejected too). *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or already-cancelled event is a no-op.
    May compact the heaps (see above): amortised O(1) per cancel, since a
    compaction over [n] entries comes after more than [n / 2] cancels since
    the previous one. *)

(** {2 Lanes}

    A lane is a FIFO event stream with one callback, for events that are
    sorted by construction: the packets on a wire with a constant
    propagation delay, or the arrivals over one cross-shard link.  Only the
    lane's head is in the heaps, so a wire with many packets in flight
    costs the heaps one entry.  Each push takes its sequence number when it
    is made, as {!schedule} does, and the head enters a heap under that
    reserved stamp; so entries fire in exactly the order they would as
    plain events, interleaved with every other event by (time, seq).  A
    pushed entry counts in {!pending} and {!heap_depth_hwm} at once and in
    [events_fired] when it fires.  Entries cannot be cancelled. *)

type lane

val lane : t -> (int -> unit) -> lane
(** [lane t f] is an empty lane on [t] whose entries each run [f payload]
    when they fire. *)

val lane_push : lane -> at:float -> int -> unit
(** [lane_push l ~at payload] appends an entry that fires at [at].  Raises
    [Invalid_argument] if [at] is before now, before the lane's last queued
    entry, or NaN; a rejected push changes nothing. *)

val lane_push_after : lane -> delay:float -> int -> unit
(** [lane_push_after l ~delay payload] is [lane_push l ~at:(now +. delay)
    payload], with the sum formed inside the engine so that it is never
    boxed.  [delay] must be non-negative, and the time must not be before
    the lane's last queued entry. *)

val pending : t -> int
(** Number of live (non-cancelled) events still queued, lane entries
    included. *)

val heap_depth_hwm : t -> int
(** High-water mark of {!pending} since {!create} — how deep the pending
    set ever got.  Tracked unconditionally (one compare per schedule, no
    allocation); exported as the [engine.heap_depth_hwm] metric. *)

type stats = {
  events_fired : int;  (** Actions executed since {!create}. *)
  cancels_skipped : int;
      (** Cancelled events discarded, at the root or by compaction. *)
}

val stats : t -> stats
(** Cumulative event-loop counters, for the [micro] bench and CI to watch
    cost-per-event (a high skip share means cancellation churn is eating
    heap bandwidth). *)

val register_metrics : t -> Ispn_obs.Metrics.t -> unit
(** Register the event-loop counters as pull gauges: [engine.events_fired],
    [engine.cancels_skipped], [engine.heap_depth_hwm], [engine.pending]. *)

val attach_series : t -> Ispn_obs.Series.t -> unit
(** Arm a time-series sampler on this engine: sample immediately (at the
    current clock), then re-schedule every [Series.interval] simulation
    seconds for as long as the engine runs.  Ticks are ordinary events —
    deterministic (time, seq) order, so they never perturb the relative
    order of other events — but they do count toward the [engine.*]
    instruments.  Attach after registering every instrument the series
    should see, so the first row is already complete. *)

val run : t -> until:float -> unit
(** Execute events in time order until the clock would pass [until], then set
    the clock to [until].  Events scheduled during the run are honoured. *)

val run_until_idle : t -> max_events:int -> unit
(** Drain the queue completely, stopping early (with [Failure]) after
    [max_events] events as a runaway guard for tests. *)
