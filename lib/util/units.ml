let link_rate_bps = 1_000_000.
let packet_bits = 1000
let buffer_packets = 200
let sim_duration_s = 600.

let transmission_time ~link_rate_bps ~packet_bits =
  float_of_int packet_bits /. link_rate_bps

let packet_times ~link_rate_bps ~packet_bits seconds =
  seconds /. transmission_time ~link_rate_bps ~packet_bits
