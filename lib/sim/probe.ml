open Ispn_util

type t = { qdelays : Fvec.t; mutable received : int }

let create () = { qdelays = Fvec.create (); received = 0 }

let sink t ~engine:_ pkt =
  t.received <- t.received + 1;
  Fvec.push_from t.qdelays (Packet.arena ()).Packet.qdelay_total pkt;
  (* The probe is a terminal sink: the packet dies here. *)
  Packet.free pkt

let received t = t.received
let qdelays t = t.qdelays

let to_units ~link_rate_bps ~packet_bits s =
  Units.packet_times ~link_rate_bps ~packet_bits s

let mean_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t =
  let n = Fvec.length t.qdelays in
  if n = 0 then 0.
  else
    to_units ~link_rate_bps ~packet_bits
      (Fvec.sum t.qdelays /. float_of_int n)

let percentile_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t p =
  to_units ~link_rate_bps ~packet_bits (Quantile.percentile t.qdelays p)

let max_qdelay ?(link_rate_bps = Units.link_rate_bps)
    ?(packet_bits = Units.packet_bits) t =
  if Fvec.length t.qdelays = 0 then 0.
  else
    to_units ~link_rate_bps ~packet_bits
      (Fvec.max ~init:neg_infinity t.qdelays)
