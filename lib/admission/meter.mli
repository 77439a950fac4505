(** Conservative measurement of link load and class delays (Section 9).

    The admission rule is driven by measured quantities: [nu_hat], the
    post-facto bound on real-time utilization of the link, and [d_hat_j],
    the measured maximal delay of each class.  The paper stresses that these
    "should not just be averages but consistently conservative estimates";
    this meter therefore reports the {e maximum} over a rotating window of
    recent epochs, so a transient burst keeps influencing admission for a
    while after it has passed.

    The meter is passive: the owner feeds it one utilization sample per
    epoch (real-time bits transmitted during the epoch divided by link
    capacity), feeds it every per-packet class delay, and calls {!rotate} at
    each epoch boundary. *)

type t

val create : n_classes:int -> ?epochs:int -> unit -> t
(** [epochs] (default 8) is the window size over which maxima are kept. *)

val note_util : t -> float -> unit
(** Record a real-time utilization sample for the current epoch. *)

val note_delay : t -> cls:int -> float -> unit
(** Record one packet's queueing delay (seconds) in class [cls]. *)

val rotate : t -> unit
(** Close the current epoch and start a fresh one; the oldest epoch falls
    out of the window. *)

val util_hat : t -> float
(** Conservative (windowed max) real-time utilization estimate in [0, 1+].
    Zero when nothing has been observed. *)

val delay_hat : t -> cls:int -> float
(** Conservative maximal delay estimate of class [cls] (seconds). *)

val estimates_into : t -> float array -> unit
(** [estimates_into t a] stores {!util_hat} in [a.(0)] and
    [delay_hat t ~cls:c] in [a.(c + 1)] for every class [c]: the same
    values, read in one call that returns no boxed float.  Raises
    [Invalid_argument] if [a] has fewer than [n_classes + 1] slots. *)

val observed_classes : t -> int
