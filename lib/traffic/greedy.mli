(** Greedy (worst-case) source for a token bucket.

    Section 4 notes the Parekh-Gallager bounds "are strict, in that they can
    be realized with a set of greedy sources which keep their token buckets
    empty."  This source does exactly that: it dumps a [depth]-sized burst
    at start-up and then emits at exactly the token rate, so the bucket is
    empty at all times.  Tests and the isolation bench use it both to probe
    bound tightness and as the canonical *misbehaving* source when its
    emissions are configured above the declared rate. *)

val create :
  engine:Ispn_sim.Engine.t ->
  flow:int ->
  rate_pps:float ->
  burst_packets:int ->
  ?overdrive:float ->
  emit:(Ispn_sim.Packet.t -> unit) ->
  unit ->
  Source.t
(** [overdrive] scales the steady emission rate (default 1.0 = exactly
    conforming; 2.0 sends at twice the declared rate, i.e. misbehaves). *)
