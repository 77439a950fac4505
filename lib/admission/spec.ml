type bucket = { rate_bps : float; depth_bits : float }

let bucket ~rate_pps ~depth_packets () =
  assert (rate_pps > 0. && depth_packets > 0.);
  let packet_bits = float_of_int Ispn_util.Units.packet_bits in
  {
    rate_bps = rate_pps *. packet_bits;
    depth_bits = depth_packets *. packet_bits;
  }

type request =
  | Guaranteed of { clock_rate_bps : float }
  | Predicted of { bucket : bucket; target_delay : float; target_loss : float }
  | Datagram

let is_realtime = function
  | Guaranteed _ | Predicted _ -> true
  | Datagram -> false

let class_targets = [| 0.008; 0.064 |]
