(** Per-flow delay measurement at the receiver.

    Records, for every delivered packet, the total queueing delay the packet
    accumulated along its path ([Packet.qdelay_total]) — the quantity the
    paper's Tables 1-3 report: one sample vector per flow.  Values are
    stored in seconds; use {!to_units} or the report helpers to convert to
    per-packet transmission-time units. *)

type t

val create : unit -> t

val sink : t -> engine:Engine.t -> Packet.t -> unit
(** Deliver one packet into the probe and free it.  [engine] is unused:
    the probe records no arrival time, and the argument stays so that
    existing callers compile unchanged.  Allocates nothing once the sample
    vector has capacity. *)

val received : t -> int

val qdelays : t -> Ispn_util.Fvec.t
(** Accumulated queueing delays, one per packet, in seconds, arrival
    order. *)

(** {2 Summaries in paper units}

    All three convert seconds into per-packet transmission times using the
    standard 1 Mbit/s / 1000-bit configuration. *)

val mean_qdelay : t -> float
val percentile_qdelay : t -> float -> float
(** [percentile_qdelay t 99.9] is the tail statistic the paper tabulates.
    Raises [Invalid_argument] when no packet has arrived. *)

val max_qdelay : t -> float
