let max_packet_bits = Ispn_util.Units.packet_bits

let pg_bound ~bucket ~clock_rate_bps ~hops () =
  if hops < 1 then invalid_arg "Bounds.pg_bound: hops must be >= 1";
  if clock_rate_bps < bucket.Spec.rate_bps -. 1e-9 then
    invalid_arg "Bounds.pg_bound: clock rate below bucket rate";
  (bucket.Spec.depth_bits
  +. (float_of_int ((hops - 1) * max_packet_bits)))
  /. clock_rate_bps

let pg_bound_packetized ~bucket ~clock_rate_bps ~hops ~link_rate_bps
    ~max_competitors () =
  if max_competitors < 0 then
    invalid_arg "Bounds.pg_bound_packetized: negative competitors";
  pg_bound ~bucket ~clock_rate_bps ~hops ()
  +. float_of_int (hops * max_competitors * max_packet_bits) /. link_rate_bps

let predicted_bound ~cls ~hops =
  if cls < 0 || cls >= Array.length Spec.class_targets then
    invalid_arg "Bounds.predicted_bound: class out of range";
  if hops < 1 then invalid_arg "Bounds.predicted_bound: hops must be >= 1";
  float_of_int hops *. Spec.class_targets.(cls)
