(** Float minimum and maximum without a runtime call.

    [Stdlib.min] and [Stdlib.max] are compiled once for every type, so
    each call runs the runtime's generic compare in C even on floats.
    These are the same definitions at type [float], where [<=] and [>=]
    compile to one machine compare: the result is bit-identical to
    Stdlib's for every pair, [nan] and signed zeros included (whichever
    argument Stdlib returns, these return).  [Float.min] and [Float.max]
    are not substitutes: they treat [nan] and the sign of zero
    differently.  Every float minimum and maximum in the library is one
    of these two: called, or, at a per-event site, written out with a
    comment naming it, since the dev profile's [-opaque] keeps the call
    from inlining and boxes the floats it is passed (DESIGN.md §5,
    "Hot-path discipline"). *)

val fmin : float -> float -> float
(** [fmin a b] is [if a <= b then a else b], as [Stdlib.min]. *)

val fmax : float -> float -> float
(** [fmax a b] is [if a >= b then a else b], as [Stdlib.max]. *)
