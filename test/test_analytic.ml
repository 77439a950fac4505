(* Closed-form formulas, plus the key validation: the discrete-event
   substrate reproduces M/D/1 waiting times for Poisson arrivals. *)
open Ispn_sim
module Analytic = Ispn_util.Analytic

let close tol = Alcotest.check (Alcotest.float tol)

let test_md1_half_of_mm1 () =
  (* Classic fact: M/D/1 mean wait is half the M/M/1 wait
     [rho / (mu - lambda)] at equal rho. *)
  let lambda = 800. and mu = 1000. in
  close 1e-9 "ratio"
    (lambda /. mu /. (mu -. lambda) /. 2.)
    (Analytic.md1_mean_wait ~lambda ~service:(1. /. mu))

let test_instability_rejected () =
  try
    ignore (Analytic.md1_mean_wait ~lambda:2. ~service:1.);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* The validation run: Poisson packets through a FIFO link = M/D/1. *)
let simulated_poisson_wait ~lambda ~duration =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:2 ~rate_bps:1e6
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:10_000) ())
      ()
  in
  let probe = Probe.create () in
  Network.install_flow net ~flow:0 ~ingress:0 ~egress:1
    ~sink:(fun p -> Probe.sink probe ~engine p);
  let source =
    Poisson.create ~engine
      ~prng:(Ispn_util.Prng.create ~seed:99L)
      ~flow:0 ~rate_pps:lambda
      ~emit:(fun p -> Network.inject net ~at_switch:0 p)
      ()
  in
  source.Ispn_traffic.Source.start ();
  Engine.run engine ~until:duration;
  (* Probe reports in packet times (ms); convert back to seconds. *)
  Probe.mean_qdelay probe /. 1000.

let test_simulator_matches_md1 () =
  List.iter
    (fun lambda ->
      let simulated = simulated_poisson_wait ~lambda ~duration:400. in
      let predicted = Analytic.md1_mean_wait ~lambda ~service:0.001 in
      let err = Float.abs (simulated -. predicted) /. predicted in
      if err > 0.08 then
        Alcotest.failf
          "lambda=%.0f: simulated %.6f vs M/D/1 %.6f (%.1f%% off)" lambda
          simulated predicted (100. *. err))
    [ 300.; 600.; 800. ]

let suite =
  [
    Alcotest.test_case "md1 is half mm1" `Quick test_md1_half_of_mm1;
    Alcotest.test_case "instability rejected" `Quick test_instability_rejected;
    Alcotest.test_case "simulator matches M/D/1" `Slow
      test_simulator_matches_md1;
  ]
