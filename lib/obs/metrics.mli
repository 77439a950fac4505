(** Metrics registry: typed instruments under stable dotted names.

    The registry is {e pull-based}: components register sampling closures
    over counters they already maintain ([Link.sent], [Engine.stats],
    [Qdisc.pool_in_use], ...), so the packet hot path is untouched — when no
    registry is created nothing is registered and nothing allocates.  The
    only push-style instrument is {!dist}, an [Ispn_util.Stats] accumulator
    for per-packet observations (e.g. the FIFO+ offset distribution) that a
    component feeds only when it was created with a registry attached.

    Instruments are read once, at {!snapshot} time, after the simulation has
    finished.  A snapshot is a name-sorted association list, so two runs
    with identical dynamics render byte-identical JSON/CSV — experiment
    jobs snapshot inside their own {!Ispn_exec.Pool} job and the harness
    merges the snapshots in canonical job order, keeping [--metrics] output
    independent of [-j].

    Naming convention (see DESIGN.md for the full catalogue):
    [engine.*], [link.<i>.*], [qdisc.<sched>.<i>.*], [csz.<i>.*],
    [signaling.*], where [<i>] is the 0-based inter-switch link index. *)

type t
(** A registry.  One per simulation run; not domain-safe (each
    [Ispn_exec.Pool] job builds its own). *)

type value = Int of int | Float of float

val create : unit -> t

val register_opt : t -> string -> (unit -> value option) -> unit
(** Like {!register}, for instruments that may have no defined value at
    snapshot time (an empty distribution's extrema, a percentile with no
    samples).  A [None] omits the instrument from that snapshot instead of
    rendering a placeholder. *)

val register_int : t -> string -> (unit -> int) -> unit
val register_float : t -> string -> (unit -> float) -> unit

val register_stats : t -> string -> Ispn_util.Stats.t -> unit
(** Export an online-moments accumulator as [name.count], [name.mean],
    [name.min], [name.max].  While [name.count] is 0, [name.min] and
    [name.max] are {e omitted} from the snapshot — an exported 0 would be
    indistinguishable from a real zero observation. *)

val dist : t -> string -> Ispn_util.Stats.t
(** Create and register (as {!register_stats}) a push-style distribution;
    the caller feeds it with [Ispn_util.Stats.add].  Components accept the
    accumulator as an [option] and skip the add when absent, so the
    disabled path costs one branch and no allocation. *)

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : t -> snapshot

(** {2 Rendering}

    Both renderers take labeled snapshots — [(job label, snapshot)] in
    canonical job order — and emit one entry per instrument under
    [<label>.<name>].  Floats are printed with ["%.9g"], so equal doubles
    render equally. *)

val render_json : (string * snapshot) list -> string
val render_csv : (string * snapshot) list -> string

val write_file : string -> (string * snapshot) list -> unit
(** Write to [path]; CSV when [path] ends in [.csv], JSON otherwise. *)
