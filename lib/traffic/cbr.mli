(** Constant-bit-rate source.

    One packet every [1 / rate_pps] seconds — the classic rigid codec the
    paper contrasts with bursty sources.  Used in examples and in tests
    where deterministic arrivals make assertions exact. *)

val create :
  engine:Ispn_sim.Engine.t ->
  flow:int ->
  rate_pps:float ->
  emit:(Ispn_sim.Packet.t -> unit) ->
  unit ->
  Source.t
(** Packets are [Units.packet_bits] long. *)
