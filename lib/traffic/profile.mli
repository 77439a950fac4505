(** Empirical traffic characterization: the paper's [b(r)] function.

    Section 4 defines, for a packet generation process, the non-increasing
    function [b(r)] as the minimal bucket depth such that the process
    conforms to an [(r, b(r))] token-bucket filter.  A guaranteed-service
    client "uses its known value for b(r) to compute its worst case
    queueing delay.  If the delay is unsuitable, it must request a higher
    clock rate" — this module is that computation: record (or replay) an
    arrival sequence, then query depths and delay bounds as a function of
    the clock rate.

    The recorder keeps only O(1) state per candidate rate by running one
    virtual bucket per queried rate over the recorded arrivals. *)

type t

val create : unit -> t
val record : t -> time:float -> bits:int -> unit
(** Append one packet; times must be non-decreasing. *)

val packets : t -> int
val duration : t -> float
(** Time span from the first to the last recorded packet. *)

val total_bits : t -> int
val mean_rate_bps : t -> float
(** [total_bits / duration]; 0 with fewer than two packets. *)

val peak_rate_bps : t -> float
(** Highest two-packet instantaneous rate observed. *)

val min_depth_bits : t -> rate_bps:float -> float
(** [b(r)]: the smallest depth (at least one packet) such that every
    recorded packet conforms.  Raises [Invalid_argument] on a non-positive
    rate or an empty recording. *)

val delay_bound : t -> rate_bps:float -> hops:int -> float
(** The Parekh-Gallager bound [ (b(r) + (hops-1) Lmax) / r ] this process
    would receive at clock rate [r] (seconds). *)

val clock_rate_for_delay :
  t -> target:float -> hops:int -> unit -> float option
(** Smallest clock rate (within 1000 bit/s) whose delay bound meets
    [target] seconds, found by bisection between the mean rate and the
    peak rate; [None] when even the peak rate is not enough (the
    bound never falls below roughly one packet time per hop). *)
