(** VAT-style play-back delay estimation.

    The paper cites the VAT packet-voice tool as a living adaptive
    application.  VAT's playout algorithm (later standardized around RTP)
    tracks a smoothed delay [d] and mean deviation [v] with exponential
    filters and plays out at [d + k v]; a sudden large delay jump flips it
    into a {e spike mode} that follows the delay closely until the spike
    drains, avoiding a long tail of losses during the transient.

    This estimator trades the exactness of {!Delay_estimator}'s windowed
    quantile for O(1) state and faster reaction to level shifts — the
    bench's playback experiment compares the two. *)

type t

val create : unit -> t
(** The EWMA gain for [d] and [v] is 1/16 and [k] is 4; a delay beyond
    [d + 8 v] enters spike mode, which ends once delays return within
    [d + 2 v]. *)

val observe : t -> float -> unit
val estimate : t -> float
(** Current playout point [d + k v] ([0.] before any observation). *)

val count : t -> int
val in_spike : t -> bool
