(** Time-series sampler: periodic snapshots of a {!Metrics} registry.

    [--metrics] reads every instrument once, after the run — dynamics like
    the E13 soft-state expiry wave or the E11 degradation ladder are
    invisible in it.  A [Series.t] samples the {e same} registry at a fixed
    {e simulation-time} interval instead: the experiment runner arms it on
    the engine (see [Ispn_sim.Engine.attach_series]), the tick re-schedules
    itself as an engine event, and each tick appends one row — the sim
    clock plus a full snapshot.  Because ticks are engine events keyed by
    deterministic sim time (never host time), two runs with identical
    dynamics produce byte-identical series at any [-j]; like [--metrics],
    each pool job samples its own registry and the harness merges exports
    in canonical job order.

    Sampling is observer-visible in exactly one place: the tick events
    count toward the [engine.*] instruments ([events_fired], [pending],
    [heap_depth_hwm]).  They read counters only — no packet, queue, or PRNG
    state is touched — so all simulation results and the default stdout are
    unchanged.

    Export formats ([write_file] picks by extension, like [Metrics]):

    - JSON: one object per label with ["interval"], ["times"], ["series"]
      (instrument name to column, aligned with ["times"]; an instrument
      omitted at some tick — e.g. an empty distribution's min/max — reads
      as 0 there) and ["hist"] (per channel: count, under/overflow,
      p50/p90/p99/p999, and the raw [\[lower, upper, count\]] buckets).
    - CSV: long format [label,time,name,value]; histogram channels appear
      as summary rows ([hist.<ch>.{count,p50,p90,p99,p999}]) with an empty
      time column.  Bucket detail is JSON-only. *)

type t

val create : ?interval:float -> metrics:Metrics.t -> unit -> t
(** [interval] is simulation seconds between samples (default 1.0).
    Raises [Invalid_argument] unless positive. *)

val interval : t -> float

val sample : t -> now:float -> unit
(** Append one row: [now] plus a snapshot of the registry.  Called by the
    engine's tick event — not a hot path (one snapshot per sim second, not
    per packet). *)

val length : t -> int
(** Rows sampled so far. *)

(** {2 Export} *)

type hist_summary = {
  hs_count : int;
  hs_underflow : int;
  hs_overflow : int;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
  hs_p999 : float;
  hs_buckets : (float * float * int) list;
}

type export = {
  ex_interval : float;
  ex_times : float array;
  ex_columns : (string * float array) list;  (** name-sorted, aligned *)
  ex_hists : (string * hist_summary) list;  (** name-sorted; empty channels skipped *)
}

val export : ?hist:Hist.t -> t -> export
(** Freeze the sampled rows (and the histogram channels, when given) into
    a renderable export.  Channels with zero samples are skipped — they
    have no percentiles to report. *)

val render_json : (string * export) list -> string
val render_csv : (string * export) list -> string

val write_file : string -> (string * export) list -> unit
(** Write to [path]; CSV when [path] ends in [.csv], JSON otherwise. *)
