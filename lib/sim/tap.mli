(** Neutral per-link monitor hooks.

    A tap is a record of callbacks a {!Link} invokes at its packet-path
    decision points: qdisc accept ([on_enqueue]), start of transmission
    ([on_dequeue], with this hop's measured wait), the transmitter going
    idle because the qdisc returned no packet ([on_idle], with the qdisc's
    reported backlog at that instant), hand-off to the receiver
    ([on_deliver]) and every loss path ([on_drop], with the recorder
    cause).

    Taps are opt-in and free when absent: a link without one pays a
    single [match] per event.  The audit, the wait histograms and the
    flight recorder ({!Link.attach_recorder}) are its consumers; the type
    lives here so that [ispn_sim] never depends on the checker. *)

type t = {
  on_enqueue : link:int -> now:float -> Packet.t -> unit;
  on_dequeue : link:int -> now:float -> wait:float -> Packet.t -> unit;
  on_idle : link:int -> now:float -> qlen:int -> unit;
  on_deliver : link:int -> now:float -> Packet.t -> unit;
  on_drop :
    link:int -> now:float -> cause:Ispn_obs.Recorder.cause -> Packet.t -> unit;
}

val seq : t -> t -> t
(** [seq a b] invokes [a]'s callback then [b]'s at every decision point, so
    independent consumers (the invariant auditor, delay histograms) can
    share one link — see [Link.add_tap]. *)

val make :
  ?on_enqueue:(link:int -> now:float -> Packet.t -> unit) ->
  ?on_dequeue:(link:int -> now:float -> wait:float -> Packet.t -> unit) ->
  ?on_idle:(link:int -> now:float -> qlen:int -> unit) ->
  ?on_deliver:(link:int -> now:float -> Packet.t -> unit) ->
  ?on_drop:
    (link:int -> now:float -> cause:Ispn_obs.Recorder.cause -> Packet.t -> unit) ->
  unit ->
  t
(** Unspecified callbacks default to no-ops. *)
