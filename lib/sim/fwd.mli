(** One network's forwarding table: static per-flow routes.

    The paper routes each flow over a fixed path and leaves routing
    protocols out of scope, so forwarding is a table written at flow
    set-up and read at every hop.  It holds a map from flow id to a dense
    slot, into which only {!install} inserts; one [int] entry per
    (switch, slot): the link to send on, a sink, or unrouted; and the
    sinks, one per installed egress.  A packet's first switch looks its
    flow up once and caches the slot in its [Packet.arena.route] column.
    So every switch a packet can reach must share one table; a packet
    handed to another table is re-made, as [Shardnet] does.  Slots depend
    on the install order: never print, order or hash by them.  Create,
    install into and run a table in one domain. *)

type t

val create :
  names:string array ->
  owns:(int -> bool) ->
  ends:(int * int) array ->
  Link.t array ->
  t
(** An empty table over switches [0 .. Array.length names - 1], switch
    [i] named [names.(i)], writing entries only at the switches [owns]
    accepts (a shard's own, for a [Shardnet] shard).  [ends.(l)] is link
    [l]'s (source, destination) switch pair, for every link id of the
    topology.  The array holds the links the owned switches send on,
    known by {!Link.id}; each one that enters an owned switch gets that
    switch's {!receive} as its receiver. *)

val install :
  t ->
  flow:int ->
  path:int list ->
  egress:int ->
  sink:(Packet.t -> unit) ->
  unit
(** Route [flow] along [path] (link ids, in order): each link's source
    switch gets that link as its entry, and [egress] gets [sink].  A later
    install overwrites the entries its path covers, also for packets in
    flight, which take the new entry at the next switch.  Entries off the
    new path keep theirs, so a packet still on an old path reaches the
    sink its old egress was given. *)

val receive : t -> int -> Packet.t -> unit
(** [receive t switch p] counts a hop and forwards [p] by its flow's
    entry at [switch].  Raises [Failure] naming the switch and the flow
    for an unrouted entry (a wiring bug, not a runtime condition), and
    [Invalid_argument] for a switch out of range. *)
