(** Deterministic domain-parallel run fabric.

    Every multi-run experiment in this repository (the paper tables, the
    bake-off, seed sweeps, load sweeps) is an embarrassingly parallel
    fan-out of independent simulations: each job builds its own
    {!Ispn_sim.Engine.t} and draws from its own {!Ispn_util.Prng} seed, so
    no mutable state crosses jobs.  This module fans such jobs across
    OCaml 5 domains with a {e fixed partition} (no work stealing): slice
    [d] of [j] owns jobs [d, d+j, d+2j, ...] and buffers its results
    locally, and the buffers are merged back into canonical job order
    after every slice has finished.  Output is therefore bit-identical
    for every [j].  The slices run through {!Workers.run}: slice 0 on the
    calling domain (at [j = 1], the whole map; nothing is spawned), each
    other slice on a domain of its own.  A job may itself fan
    out through {!Workers} — a sharded simulation inside a [-j] job does —
    without deadlock (see {!Workers}).

    Jobs must not share mutable state and must derive all randomness from
    per-job {!Ispn_util.Prng} seeds — the repository-wide rule anyway. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the [-j] default of the bench
    harness and CLI. *)

type error = {
  job : int;  (** Index of the crashed job in the input list. *)
  exn : exn;
  backtrace : string;
      (** [Printexc] backtrace captured at the raise, in the crashing
          domain — without it a fanned-out crash points nowhere.  Empty
          when backtrace recording is off. *)
}

val try_map : ?j:int -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** [try_map ~j f xs] applies [f] to every element of [xs] across at most
    [j] domains (clamped to [max 1 (min j (length xs))]; default
    {!default_jobs}) and returns the results in the order of [xs].  A
    raising job yields [Error] in its slot — carrying which job crashed,
    the exception and its backtrace — and does not disturb the others:
    crash containment is per job, not per pool. *)

val map : ?j:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~j f xs] is {!try_map} with failures re-raised: once every job
    has finished, the first exception in canonical job order (not wall-clock
    order, so the raise is deterministic too) is re-raised. *)
