let uniform g ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. Prng.float g)

let exponential g ~mean =
  assert (mean > 0.);
  let u = Prng.float g in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1.0 -. u)

let geometric g ~mean =
  assert (mean >= 1.);
  if mean = 1. then 1
  else begin
    let p = 1. /. mean in
    let u = Prng.float g in
    (* Inversion: ceil(log(1-u) / log(1-p)) >= 1. *)
    let k = ceil (log (1.0 -. u) /. log (1.0 -. p)) in
    max 1 (int_of_float k)
  end

let bernoulli g ~p = Prng.float g < p

let pareto g ~shape ~scale =
  assert (shape > 0. && scale > 0.);
  let u = Prng.float g in
  (* 1 - u is in (0, 1], so the result is finite and >= scale. *)
  scale /. ((1.0 -. u) ** (1. /. shape))
