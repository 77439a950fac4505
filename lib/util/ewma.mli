(** Exponentially weighted moving average.

    FIFO+ switches track the average queueing delay of each sharing class
    with an EWMA (Section 6 of the paper measures "the average delay seen by
    packets in each priority class at that switch").  The admission
    controller's conservative load estimators are also EWMA-based. *)

type t

val create : gain:float -> unit -> t
(** [create ~gain ()] makes an average updated as
    [avg <- avg + gain * (x - avg)].  [gain] must lie in (0, 1].  Until the
    first observation the average reads as [0.]. *)

val update : t -> float -> unit
(** Fold one observation into the average.  The first observation replaces
    the initial value entirely, so the estimate is unbiased at startup. *)

val value : t -> float
