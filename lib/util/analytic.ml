(* Pollaczek-Khinchine mean wait with zero service variance. *)
let md1_mean_wait ~lambda ~service =
  let rho = lambda *. service in
  if not (lambda > 0. && rho < 1.) then
    invalid_arg
      (Printf.sprintf
         "Analytic: need 0 < lambda * service < 1 (lambda=%g, service=%g)"
         lambda service);
  rho *. service /. (2. *. (1. -. rho))

(* Deterministic (network-calculus) bounds for the bake-off shapers.  All
   take rates in bit/s, bursts and packet sizes in bits, and return
   seconds; every precondition failure raises with the offending values
   so a mis-configured experiment dies loudly instead of reporting a
   negative or infinite bound. *)

let rate_latency_delay ~burst_bits ~rate_bps ~service_rate_bps ~latency_s =
  if not (service_rate_bps > 0. && rate_bps >= 0.
          && rate_bps <= service_rate_bps && burst_bits >= 0.
          && latency_s >= 0.) then
    invalid_arg
      (Printf.sprintf
         "Analytic.rate_latency_delay: need 0 <= rate <= service, \
          service > 0, burst >= 0, latency >= 0 \
          (burst=%g, rate=%g, service=%g, latency=%g)"
         burst_bits rate_bps service_rate_bps latency_s);
  latency_s +. (burst_bits /. service_rate_bps)

let wrr_service ~link_rate_bps ~weight ~total_weight ~max_packet_bits =
  if not (link_rate_bps > 0. && weight > 0 && total_weight >= weight
          && max_packet_bits > 0) then
    invalid_arg
      (Printf.sprintf
         "Analytic.wrr_service: need 0 < weight <= total_weight, \
          link_rate > 0, max_packet > 0 \
          (link_rate=%g, weight=%d, total_weight=%d, max_packet=%d)"
         link_rate_bps weight total_weight max_packet_bits);
  let l = float max_packet_bits in
  let rate = float weight /. float total_weight *. link_rate_bps in
  let latency =
    float (total_weight - weight + 1) *. l /. link_rate_bps in
  (rate, latency)

let mc_fifo_delay ~link_rate_bps ~total_burst_bits ~total_rate_bps
    ~max_packet_bits =
  if not (link_rate_bps > 0. && total_burst_bits >= 0.
          && total_rate_bps >= 0. && total_rate_bps < link_rate_bps
          && max_packet_bits > 0) then
    invalid_arg
      (Printf.sprintf
         "Analytic.mc_fifo_delay: need 0 <= total_rate < link_rate, \
          total_burst >= 0, max_packet > 0 \
          (link_rate=%g, total_burst=%g, total_rate=%g, max_packet=%d)"
         link_rate_bps total_burst_bits total_rate_bps max_packet_bits);
  (total_burst_bits +. float max_packet_bits) /. link_rate_bps

let sp_service ~link_rate_bps ~higher_rate_bps ~higher_burst_bits
    ~max_packet_bits =
  if not (link_rate_bps > 0. && higher_rate_bps >= 0.
          && higher_rate_bps < link_rate_bps && higher_burst_bits >= 0.
          && max_packet_bits > 0) then
    invalid_arg
      (Printf.sprintf
         "Analytic.sp_service: need 0 <= higher_rate < link_rate, \
          higher_burst >= 0, max_packet > 0 \
          (link_rate=%g, higher_rate=%g, higher_burst=%g, max_packet=%d)"
         link_rate_bps higher_rate_bps higher_burst_bits max_packet_bits);
  let rate = link_rate_bps -. higher_rate_bps in
  let latency = (higher_burst_bits +. float max_packet_bits) /. rate in
  (rate, latency)

let cbs_latency ~link_rate_bps ~idle_slope_bps ~higher_slope_bps
    ~max_packet_bits =
  if not (link_rate_bps > 0. && idle_slope_bps > 0.
          && idle_slope_bps <= link_rate_bps && higher_slope_bps >= 0.
          && higher_slope_bps < link_rate_bps && max_packet_bits > 0) then
    invalid_arg
      (Printf.sprintf
         "Analytic.cbs_latency: need 0 < idle_slope <= link_rate, \
          0 <= higher_slope < link_rate, max_packet > 0 \
          (link_rate=%g, idle_slope=%g, higher_slope=%g, max_packet=%d)"
         link_rate_bps idle_slope_bps higher_slope_bps max_packet_bits);
  let l = float max_packet_bits in
  let base = (2. *. l /. idle_slope_bps) +. (2. *. l /. link_rate_bps) in
  if higher_slope_bps > 0. then
    base +. (3. *. l /. (link_rate_bps -. higher_slope_bps))
  else base
