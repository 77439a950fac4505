type t = {
  times : Ispn_util.Fvec.t;
  sizes : Ispn_util.Fvec.t;  (* bits, stored as floats *)
  mutable total_bits : int;
  mutable max_packet_bits : int;
  mutable peak_rate : float;
}

let create () =
  {
    times = Ispn_util.Fvec.create ();
    sizes = Ispn_util.Fvec.create ();
    total_bits = 0;
    max_packet_bits = 0;
    peak_rate = 0.;
  }

let packets t = Ispn_util.Fvec.length t.times

let record t ~time ~bits =
  assert (bits > 0);
  let n = packets t in
  if n > 0 then begin
    let last = Ispn_util.Fvec.get t.times (n - 1) in
    if time < last then invalid_arg "Profile.record: time went backwards";
    let gap = time -. last in
    if gap > 0. then
      t.peak_rate <- Stdlib.max t.peak_rate (float_of_int bits /. gap)
  end;
  Ispn_util.Fvec.push t.times time;
  Ispn_util.Fvec.push t.sizes (float_of_int bits);
  t.total_bits <- t.total_bits + bits;
  t.max_packet_bits <- Stdlib.max t.max_packet_bits bits

let duration t =
  let n = packets t in
  if n < 2 then 0.
  else Ispn_util.Fvec.get t.times (n - 1) -. Ispn_util.Fvec.get t.times 0

let total_bits t = t.total_bits


let mean_rate_bps t =
  let d = duration t in
  if d <= 0. then 0. else float_of_int t.total_bits /. d

let peak_rate_bps t = t.peak_rate

(* One pass of the paper's recurrence at rate r, tracking the worst
   shortfall: b(r) = max_i (consumed_i - refilled_i), i.e. the depth needed
   so that n_i >= 0 throughout. *)
let min_depth_bits t ~rate_bps =
  if rate_bps <= 0. then invalid_arg "Profile.min_depth_bits: rate";
  let n = packets t in
  if n = 0 then invalid_arg "Profile.min_depth_bits: empty profile";
  (* Simulate a bucket of infinite depth starting from level 0 at the first
     arrival; the minimal depth is the largest deficit below the start. *)
  let level = ref 0. in
  let worst = ref 0. in
  let last = ref (Ispn_util.Fvec.get t.times 0) in
  for i = 0 to n - 1 do
    let time = Ispn_util.Fvec.get t.times i in
    let bits = Ispn_util.Fvec.get t.sizes i in
    (* Refill (uncapped: depth is what we are solving for; the binding
       constraint is the running deficit, and not capping only weakens
       later deficits, so the result is exact for the capped bucket too
       when the start level equals the depth). *)
    level := Stdlib.min 0. (!level +. ((time -. !last) *. rate_bps));
    last := time;
    level := !level -. bits;
    if -. !level > !worst then worst := -. !level
  done;
  Stdlib.max !worst (float_of_int t.max_packet_bits)

let delay_bound t ~rate_bps ~hops =
  assert (hops >= 1);
  let b = min_depth_bits t ~rate_bps in
  (b +. float_of_int ((hops - 1) * t.max_packet_bits)) /. rate_bps

let clock_rate_for_delay t ~target ~hops () =
  let tolerance_bps = 1000. in
  assert (target > 0.);
  let lo = Stdlib.max 1. (mean_rate_bps t) in
  let hi = Stdlib.max lo (peak_rate_bps t) in
  if delay_bound t ~rate_bps:hi ~hops > target then None
  else begin
    (* delay_bound is non-increasing in the rate, so bisection applies. *)
    let rec bisect lo hi =
      if hi -. lo <= tolerance_bps then hi
      else begin
        let mid = (lo +. hi) /. 2. in
        if delay_bound t ~rate_bps:mid ~hops <= target then bisect lo mid
        else bisect mid hi
      end
    in
    Some (if delay_bound t ~rate_bps:lo ~hops <= target then lo else bisect lo hi)
  end
