(** The experiment registry: one entry per reproducible section (the
    paper's Tables 1–3 and Figure 1, plus the extension experiments), shared
    by both front-ends.  [bench/main.exe] runs entries by name and
    [bin/ispn_sim.exe] turns each into a subcommand; neither wires a section
    by hand, so their stdout cannot drift apart.

    An entry runs against a validated {!ctx} and returns its report text
    and its labeled observability exports instead of printing them;
    {!render} lays them out the way both front-ends print them. *)

(** The command-line flags an entry honors.  Each is one cmdliner option
    in [Ispn_front], the front-end both executables share: an [ispn_sim]
    subcommand has exactly its entry's options, and the bench, which takes
    one global set, refuses [--check], [--metrics] and [--series] for a
    named section that does not declare them. *)
type flag =
  | Jobs  (** [-j N]: fan independent runs over [N] domains. *)
  | Shards  (** [--shards N]: split one simulation over [N] domains. *)
  | Check  (** [--check]: invariant audit, [\[check\]] footers. *)
  | Metrics  (** [--metrics FILE]: [\[obs\]] footers and snapshots. *)
  | Series  (** [--series FILE]: sampled timelines and histograms. *)
  | Avg_rate  (** [--avg-rate PPS]: per-flow average packet rate. *)
  | Verbose  (** [-v]: per-flow statistics after the table. *)
  | Fast  (** [--fast]: 60 s of simulated time. *)
  | Debug  (** [--debug]: debug logs to stderr. *)
  | Duration  (** [--duration SECONDS]. *)
  | Seed  (** [--seed SEED]. *)

type ctx = private {
  duration : float;  (** Simulated seconds; positive and finite. *)
  seed : int64;
  avg_rate : float;  (** Packets/second; positive and finite. *)
  jobs : int;  (** Pool width; positive. *)
  shards : int;  (** Shard count; positive. *)
  trace_cap : int option;  (** Flight-recorder ring capacity; positive. *)
  verbose : bool;
  check : bool;  (** Attach an audit per run and report its summary. *)
  metrics : bool;  (** Snapshot a metrics registry per run. *)
  series : bool;  (** Sample a series and histograms per run. *)
}

val ctx :
  ?duration:float ->
  ?seed:int64 ->
  ?avg_rate:float ->
  ?jobs:int ->
  ?shards:int ->
  ?trace_cap:int ->
  ?verbose:bool ->
  ?check:bool ->
  ?metrics:bool ->
  ?series:bool ->
  unit ->
  (ctx, string) result
(** The one place run parameters are validated.  Defaults: 600 s, seed 42,
    85 pkt/s, {!Ispn_exec.Pool.default_jobs} jobs, one shard, no trace cap,
    every switch off.  [Error msg] names the offending flag when
    [duration] or [avg_rate] is not positive and finite, or [jobs],
    [shards] or [trace_cap] is not positive. *)

type exports = (string * Instr.export) list
(** Labeled per-job exports, in canonical job order, so they are identical
    for every [-j] and [--shards]. *)

type output = { text : string; exports : exports }
(** [text] is the section's report body (with [-v] extras); footers and
    epilogue are added by {!render}. *)

type t = {
  name : string;
  doc : string;  (** One line for [--help]. *)
  flags : flag list;
  bench_cap : float option;
      (** The bench clamps its duration to this; the CLI runs
          [--duration] as given. *)
  epilogue : string;  (** Paper reference and "Shape to check" lines. *)
  run : ctx -> output;
      (** Raises [Invalid_argument] when the ctx is out of the section's
          range (e.g. more [--shards] than [scale] has regions). *)
}

val all : t list
(** The 18 shared sections, in bench order. *)

val capped : t -> ctx -> ctx
(** [ctx] with its duration clamped to the entry's [bench_cap]. *)

val no_exports : exports

val per_line :
  ?exports:exports -> 'a list -> (Buffer.t -> 'a -> unit) -> output
(** An output printed row by row into a buffer; no exports by default. *)

val render : t -> output -> string
(** Text, then [\[obs\]] footers, [\[check\]] footers and the epilogue. *)

val concat : exports list -> exports
val snapshots : exports -> (string * Ispn_obs.Metrics.snapshot) list
val timelines : exports -> (string * Ispn_obs.Series.export) list

val violations : exports -> int
(** Audit violations summed over the summaries. *)

val finish : ?metrics:string -> ?series:string -> exports -> unit
(** The front-ends' last step: write the snapshots to [metrics] and the
    timelines to [series] when given (CSV for a [.csv] name, JSON
    otherwise), then exit 1 if any audit found a violation. *)
