open Ispn_util

let mean_of f n g =
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. f g
  done;
  !sum /. float_of_int n

let check_close name expected actual tolerance =
  if Float.abs (actual -. expected) > tolerance then
    Alcotest.failf "%s: expected ~%g, got %g" name expected actual

let test_uniform_bounds () =
  let g = Prng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let x = Dist.uniform g ~lo:2. ~hi:5. in
    if x < 2. || x >= 5. then Alcotest.failf "uniform out of bounds: %g" x
  done

let test_uniform_mean () =
  let g = Prng.create ~seed:2L in
  let m = mean_of (fun g -> Dist.uniform g ~lo:0. ~hi:10.) 100_000 g in
  check_close "uniform mean" 5.0 m 0.1

let test_exponential_mean () =
  let g = Prng.create ~seed:3L in
  let m = mean_of (fun g -> Dist.exponential g ~mean:0.03) 200_000 g in
  check_close "exponential mean" 0.03 m 0.001

let test_exponential_positive () =
  let g = Prng.create ~seed:4L in
  for _ = 1 to 10_000 do
    if Dist.exponential g ~mean:1. < 0. then Alcotest.fail "negative variate"
  done

let test_geometric_mean () =
  let g = Prng.create ~seed:5L in
  let m =
    mean_of (fun g -> float_of_int (Dist.geometric g ~mean:5.)) 200_000 g
  in
  check_close "geometric mean (paper's B=5)" 5.0 m 0.1

let test_geometric_support () =
  let g = Prng.create ~seed:6L in
  for _ = 1 to 10_000 do
    if Dist.geometric g ~mean:3. < 1 then Alcotest.fail "geometric < 1"
  done;
  Alcotest.(check int) "mean 1 is constant" 1 (Dist.geometric g ~mean:1.)

let test_bernoulli () =
  let g = Prng.create ~seed:7L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Dist.bernoulli g ~p:0.3 then incr hits
  done;
  check_close "bernoulli 0.3" 0.3 (float_of_int !hits /. float_of_int n) 0.01

let test_pareto_minimum () =
  let g = Prng.create ~seed:8L in
  for _ = 1 to 10_000 do
    let x = Dist.pareto g ~shape:1.2 ~scale:0.5 in
    if x < 0.5 || not (Float.is_finite x) then
      Alcotest.failf "pareto below its scale or not finite: %g" x
  done

let test_pareto_mean () =
  let g = Prng.create ~seed:9L in
  let m = mean_of (fun g -> Dist.pareto g ~shape:3. ~scale:2.) 200_000 g in
  (* shape * scale / (shape - 1) = 3 *)
  check_close "pareto mean" 3.0 m 0.05

let test_pareto_tail () =
  let g = Prng.create ~seed:10L in
  let n = 100_000 in
  let over = ref 0 in
  for _ = 1 to n do
    if Dist.pareto g ~shape:1.5 ~scale:1. > 2. then incr over
  done;
  (* P(X > 2 scale) = 2^-shape *)
  check_close "pareto tail" (2. ** -1.5)
    (float_of_int !over /. float_of_int n)
    0.01

let qcheck_geometric_at_least_one =
  QCheck.Test.make ~name:"geometric >= 1 for any mean >= 1" ~count:500
    QCheck.(pair int64 (float_range 1. 100.))
    (fun (seed, mean) ->
      let g = Prng.create ~seed in
      Dist.geometric g ~mean >= 1)

let qcheck_exponential_nonneg =
  QCheck.Test.make ~name:"exponential >= 0 for any positive mean" ~count:500
    QCheck.(pair int64 (float_range 1e-6 1e6))
    (fun (seed, mean) ->
      let g = Prng.create ~seed in
      Dist.exponential g ~mean >= 0.)

let suite =
  [
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "geometric support" `Quick test_geometric_support;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli;
    Alcotest.test_case "pareto minimum" `Quick test_pareto_minimum;
    Alcotest.test_case "pareto mean" `Quick test_pareto_mean;
    Alcotest.test_case "pareto tail" `Quick test_pareto_tail;
    QCheck_alcotest.to_alcotest qcheck_geometric_at_least_one;
    QCheck_alcotest.to_alcotest qcheck_exponential_nonneg;
  ]
