(** One simulation sharded across OCaml 5 domains (conservative PDES).

    The paper's experiments run one topology on one engine; this module
    partitions a single simulation over several domains so a large
    topology (ROADMAP item 1: city-scale scenarios) uses every core.
    Synchronization is conservative, Chandy–Misra–Bryant style: the
    switches are split into shards, each shard owns an {!Engine}, the
    links it transmits on, and — via the per-domain arena — every packet
    currently inside it, and all shards advance in lock-step windows no
    wider than the minimum cross-shard propagation delay (the lookahead).
    A packet leaving shard A in window [k] therefore arrives at shard B
    in window [k+1] or later and is handed over at the barrier.

    Handles never cross domains: a cross-shard link marshals the
    packet's arena fields into a fixed-layout exchange buffer (freeing
    the handle in the source arena) and the destination shard re-makes
    the packet in its own arena when it drains its inboxes.  Inboxes
    drain in canonical order — ascending global link id, entries in
    production time order — so simultaneous handoffs schedule
    identically at every shard count.

    {b Determinism contract} (same as [-j]): stdout, metrics and check
    output derived from {!result} are byte-identical for every
    [n_shards], including 1, unless a cut-link arrival ties on the exact
    float instant with another event at its destination: unsharded it
    ranks by its send, sharded by the window's drain.  Distinct
    propagation delays do not prevent such ties (DESIGN.md §10).  CI
    gates [scale --shards 1] vs [--shards 4] with [cmp]. *)

type link_spec = {
  l_src : int;
  l_dst : int;
  l_rate_bps : float;
  l_prop_delay : float;  (** Must be [> 0] when the link crosses shards. *)
  l_qdisc : unit -> Qdisc.t;
      (** Invoked inside the owning shard's domain — safe to allocate
          pools or read the arena in the factory. *)
}

type flow_spec = {
  f_src : int;
  f_dst : int;
      (** Routed over the spec's links by {!Network.route}: fewest hops,
          ties toward the lower switch id, the same route an unsharded
          {!Network.t} over these links installs, into each shard's
          own {!Fwd} table. *)
  f_driver : Engine.t -> (Packet.t -> unit) -> unit;
      (** Called once, inside the ingress shard's domain, with that
          shard's engine and an emit function that injects at [f_src];
          it must build and start the flow's traffic source.  Packets
          made by the driver live in the ingress domain's arena. *)
}

type spec = {
  n_switches : int;
  n_shards : int;
  shard_of : int array;  (** Switch id to shard, length [n_switches]. *)
  links : link_spec array;
      (** Global link ids are indices into this array; keep the order
          canonical (it fixes the exchange drain order). *)
  flows : flow_spec array;  (** Flow ids are indices into this array. *)
}

type flow_stat = {
  f_delivered : int;
  f_delay_sum : float;  (** End-to-end, seconds, over delivered packets. *)
  f_delay_max : float;
  f_qdelay_sum : float;
  f_digest : int;
      (** Order-sensitive fold over the [(seq, delay)] delivery stream —
          lets tests compare full per-flow histories across widths. *)
}

type link_stat = { k_sent : int; k_dropped : int; k_drops_buffer : int }

type result = {
  r_flows : flow_stat array;  (** By flow id; shard-count-independent. *)
  r_links : link_stat array;  (** By link id; shard-count-independent. *)
  r_shards : int;
  r_windows : int;  (** Lock-step windows executed ([1] when unsharded). *)
  r_lookahead : float;  (** Window width: min cross-shard prop delay. *)
  r_cut_links : int;
  r_pushed : int;  (** Packets marshalled out across all cut links. *)
  r_drained : int;  (** Packets re-made at destinations; equals
                        [r_pushed] when the run ends quiescent. *)
  r_fired : int;  (** Engine events fired, summed over shards. *)
}

val run :
  ?on_start:(shard:int -> unit) ->
  ?on_link:(shard:int -> Link.t -> unit) ->
  ?on_shard:(shard:int -> Engine.t -> unit) ->
  ?on_finish:(shard:int -> unit) ->
  ?until:float ->
  spec ->
  result
(** [run spec] builds and runs each shard on its own domain (own engine,
    that domain's packet arena) through {!Ispn_exec.Workers.run}: shard 0
    on the calling domain, each other shard on a domain spawned for it.
    A one-shard run therefore stays wholly on the caller: no spawn, one
    window, and a barrier that never blocks.  A call from inside a [-j]
    job cannot deadlock: every shard starts at once on a domain that runs
    nothing else.  [run] steps the windowed lock-step to [until] (default
    60 s) and merges per-flow and per-link results in canonical index
    order.  The caller's arena keeps the counters of every earlier run on
    that domain, so anything reading it reads a delta from a baseline
    taken in [on_start], as the audit does.  Once [on_finish] has
    returned, each shard frees the packets it left in flight, so repeated
    runs on one domain do not grow its arena.
    [on_link] is called in the owning shard's domain for every link as
    it is built — the hook for [--check] audit contexts and [--metrics]
    registration (one context per shard; their summaries and snapshots
    are plain data, mergeable after the run).  [on_shard] is called once
    per shard, in its domain, after the shard's links and flows are
    wired but before the first window — the hook for per-shard engine
    attachments such as [--series] samplers.  [on_start] runs first in
    each shard's domain, before anything is built, and [on_finish] last,
    after its final window: the place to create and finalize per-shard
    state that reads the domain's own packet arena (an audit context's
    baseline and arena checks).  Raises [Invalid_argument]
    for inconsistent specs, including a cross-shard link with zero
    propagation delay (no lookahead, no conservative window) and a
    duplicate link; raises [Failure] when a flow's [f_dst] is unreachable
    from its [f_src]. *)

(**/**)

(** Exposed for the budget tests only: the marshal / re-make exchange
    primitives, drivable on one domain. *)
module For_tests : sig
  type buf

  val buf : unit -> buf
  val push : buf -> Packet.arena -> Packet.t -> arrival:float -> unit
  val remake : buf -> Packet.arena -> int -> Packet.t
  val reset : buf -> unit
end
