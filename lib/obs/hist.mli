(** Named delay-histogram channels: the tail-latency side of [--series].

    A [Hist.t] is a registry of [Ispn_util.Loghist] channels keyed by the
    same dotted names as the metrics catalogue — [link.<i>.wait] for a
    hop's queueing delay (fed from the link's dequeue tap) and
    [csz.class.<c>.delay] for a CSZ scheduling class (fed from the
    scheduler's delay hook).  Feeding a channel is an [Loghist.add]: one
    branch and an int store, no allocation, so a channel can stay attached
    to the dequeue path for a whole run.

    When created with [~metrics], every channel also registers pull-based
    instruments [hist.<name>.count] and [hist.<name>.{p50,p90,p99,p999}] on
    the registry, so [--metrics] snapshots and the [\[obs\]] report footers
    pick the percentiles up with no extra plumbing.  The percentile
    instruments are omitted while the channel is empty (same rule as an
    empty distribution's min/max).  Percentile values are in seconds, like
    every internal time; reports convert to ms or packet times at the
    edge. *)

type t

val create : ?metrics:Metrics.t -> unit -> t

val channel : t -> string -> Ispn_util.Loghist.t
(** [channel t name] returns the channel registered under [name], creating
    it (with [Loghist.create]'s default bucket layout) on first use.
    Creation order does not matter: exports and metrics snapshots are
    name-sorted. *)

val export : t -> (string * Ispn_util.Loghist.t) list
(** All channels, sorted by name. *)
