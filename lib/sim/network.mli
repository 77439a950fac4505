(** The routed graph: switches joined by directed, store-and-forward links.

    The paper's architecture is per link — every output link runs its own
    scheduler and admission control reasons link by link along a flow's
    path — so nothing here depends on the shape.  {!create} builds any
    directed graph from an explicit link list; {!chain}, the Figure-1 line
    of switches every multi-hop experiment runs on, is that constructor
    applied to the links [(i, i+1)].

    Every switch [i] is named [S-<i+1>]; every link [i] is named
    [L-<i+1>] and carries [i] as its {!Link.id}, the index metrics names
    and recorder events use.  Routes are fewest-hop (unit-weight BFS)
    with ties broken toward the lower switch id, computed once per source
    switch on first use and static afterwards — consistent with the
    paper, which leaves routing out of scope.  The switches forward
    through one {!Fwd} table.

    {b Errors.}  A switch id outside [0 .. n_switches-1] is a wiring bug
    and raises [Invalid_argument]; a pair with no route raises [Failure];
    {!path} answers [None] for both. *)

type t

val create :
  engine:Engine.t ->
  n_switches:int ->
  links:(int * int) list ->
  rate_bps:float ->
  ?prop_delay:float ->
  qdisc_of:(int -> Qdisc.t) ->
  unit ->
  t
(** [create ~n_switches ~links ~qdisc_of ()] creates switches
    [0 .. n_switches-1] and, for entry [i = (src, dst)] of [links], link
    [i] from [src] to [dst] through [qdisc_of i] (called once per link, in
    order).  A recorder attached to every link stamps events with the
    link's index [i]; the per-hop attribution in [Ispn_obs.Attrib] relies
    on this numbering.  Raises [Invalid_argument] on an out-of-range
    endpoint, a self-loop or a duplicate link. *)

val chain :
  engine:Engine.t ->
  n_switches:int ->
  rate_bps:float ->
  ?prop_delay:float ->
  qdisc_of:(int -> Qdisc.t) ->
  unit ->
  t
(** The Figure-1 shape: {!create} with link [i] from switch [i] to
    switch [i+1], for [i] in [0 .. n_switches-2]. *)

val engine : t -> Engine.t
val n_switches : t -> int
val n_links : t -> int
val link : t -> int -> Link.t

val path : t -> ingress:int -> egress:int -> int list option
(** Link ids a flow from [ingress] to [egress] traverses, in order;
    [Some []] when [ingress = egress], [None] when unreachable or either
    id is out of range. *)

val install_flow :
  t -> flow:int -> ingress:int -> egress:int -> sink:(Packet.t -> unit) -> unit
(** Route [flow] from switch [ingress] along {!path} and deliver to [sink]
    at switch [egress], by {!Fwd.install}, which says how a re-install
    takes effect.  A flow with [ingress = egress] is delivered locally
    without queueing (used by probes colocated with the source).
    Raises [Invalid_argument] for an out-of-range id and [Failure] when
    [egress] is unreachable from [ingress] — on a chain, any
    [egress < ingress]. *)

val inject : t -> at_switch:int -> Packet.t -> unit
(** Host-to-switch links are infinitely fast (Appendix), so injection is a
    direct call into the switch, {!Fwd.receive}. *)

val total_dropped : t -> int
(** Sum of buffer drops over all links. *)

val utilization : t -> link:int -> elapsed:float -> float

val register_metrics : t -> Ispn_obs.Metrics.t -> unit
(** Register every link's counters under [link.<i>] (0-based link index);
    see {!Link.register_metrics}. *)

(** {2 Route search}

    The one fewest-hop search, over plain [(src, dst)] link data.  {!t}
    routes with it, and so does {!Shardnet}, which must route before its
    shards build any switch or link. *)

type routes

val routes : n_switches:int -> (int * int) array -> routes
(** Index the links (link [i] is entry [i]).  Adjacency is sorted once,
    by destination switch id.  Raises [Invalid_argument] on an
    out-of-range endpoint, a self-loop or a duplicate link. *)

val route : routes -> src:int -> dst:int -> int list option
(** Link ids from [src] to [dst] along a fewest-hop path, visiting
    neighbours in ascending switch id; [Some []] when [src = dst], [None]
    when unreachable or either id is out of range.  The first route from
    a source runs the search and stores its route to every destination;
    later ones are a lookup that allocates nothing.  Not domain-safe: the
    store is filled on first use. *)
