(** Periodic queue-depth sampling.

    Delay percentiles say how packets fared; backlog samples say how close a
    200-packet buffer came to overflowing — the quantity that decides the
    paper's buffer provisioning and the datagram drop rate.  A watcher
    samples one link's queue length on a fixed period for the lifetime of
    the run. *)

type t

val watch : engine:Engine.t -> link:Link.t -> ?interval:float -> unit -> t
(** Start sampling [link]'s qdisc length every [interval] seconds (default
    0.01 — ten packet times at the paper's rates). *)

val samples : t -> Ispn_util.Fvec.t
(** Queue lengths in packets, one per sample, in time order. *)

val count : t -> int
val mean : t -> float
val max : t -> float
val percentile : t -> float -> float
(** Raises [Invalid_argument] when nothing has been sampled. *)

val histogram : t -> Ispn_util.Loghist.t
(** Distribution of queue depth in geometric buckets, ten per decade from
    one packet up: an empty queue counts as underflow, and the observed
    maximum falls in a regular bucket. *)
