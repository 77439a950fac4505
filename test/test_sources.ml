(* Traffic sources: Onoff, Cbr, Poisson, Greedy. *)
open Ispn_sim
module Prng = Ispn_util.Prng

let collect_source build ~duration =
  let engine = Engine.create () in
  let times = ref [] in
  let src = build engine (fun (p : Packet.t) -> times := (Engine.now engine, p) :: !times) in
  src.Ispn_traffic.Source.start ();
  Engine.run engine ~until:duration;
  (src, List.rev !times)

(* --- Onoff --- *)

let test_onoff_idle_mean_relation () =
  (* The Appendix relation: with B = 5 and P = 2A, I = B / (2A). *)
  let i = Ispn_traffic.Onoff.idle_mean ~avg_rate_pps:85. ~peak_rate_pps:170. ~burst_mean:5. in
  Alcotest.(check (float 1e-9)) "I = B/(2A)" (5. /. 170.) i

let test_onoff_average_rate () =
  let build engine emit =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.create ~seed:11L) ~flow:0
      ~avg_rate_pps:85. ~emit ()
  in
  let src, times = collect_source build ~duration:200. in
  let rate = float_of_int (List.length times) /. 200. in
  if Float.abs (rate -. 85.) > 4. then
    Alcotest.failf "average rate %.1f, expected ~85" rate;
  Alcotest.(check int) "generated counter" (List.length times)
    (src.Ispn_traffic.Source.generated ())

let test_onoff_peak_spacing () =
  (* Within a burst, consecutive packets are exactly 1/P apart. *)
  let build engine emit =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.create ~seed:12L) ~flow:0
      ~avg_rate_pps:85. ~emit ()
  in
  let _, times = collect_source build ~duration:20. in
  let min_gap = 1. /. 170. in
  let rec check = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        if t2 -. t1 < min_gap -. 1e-9 then
          Alcotest.failf "gap %.6f below peak spacing" (t2 -. t1);
        check rest
    | _ -> ()
  in
  check times

let test_onoff_seq_numbers () =
  let build engine emit =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.create ~seed:13L) ~flow:7
      ~avg_rate_pps:85. ~emit ()
  in
  let _, times = collect_source build ~duration:5. in
  List.iteri
    (fun i (_, p) ->
      Alcotest.(check int) "seq" i (Packet.seq p);
      Alcotest.(check int) "flow" 7 (Packet.flow p))
    times

let test_onoff_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  let src =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.create ~seed:14L) ~flow:0
      ~avg_rate_pps:85. ~emit:(fun _ -> incr count) ()
  in
  src.Ispn_traffic.Source.start ();
  Engine.run engine ~until:10.;
  src.Ispn_traffic.Source.stop ();
  let at_stop = !count in
  Engine.run engine ~until:20.;
  Alcotest.(check int) "no packets after stop" at_stop !count

let test_onoff_determinism () =
  let run () =
    let build engine emit =
      Ispn_traffic.Onoff.create ~engine ~prng:(Prng.create ~seed:15L) ~flow:0
        ~avg_rate_pps:85. ~emit ()
    in
    let _, times = collect_source build ~duration:10. in
    List.map fst times
  in
  Alcotest.(check bool) "same seed, same schedule" true (run () = run ())

(* --- Cbr --- *)

let test_cbr_exact_spacing () =
  let build engine emit =
    Ispn_traffic.Cbr.create ~engine ~flow:0 ~rate_pps:100. ~emit ()
  in
  let _, times = collect_source build ~duration:0.1 in
  (* Starts immediately: packets at 0, 10ms, ..., 90ms, plus the one at 100ms. *)
  Alcotest.(check int) "count" 11 (List.length times);
  List.iteri
    (fun i (t, _) ->
      Alcotest.(check (float 1e-9)) "spacing" (0.01 *. float_of_int i) t)
    times

(* --- Poisson --- *)

let test_poisson_rate () =
  let build engine emit =
    Poisson.create ~engine ~prng:(Prng.create ~seed:16L) ~flow:0
      ~rate_pps:200. ~emit ()
  in
  let _, times = collect_source build ~duration:100. in
  let rate = float_of_int (List.length times) /. 100. in
  if Float.abs (rate -. 200.) > 10. then
    Alcotest.failf "poisson rate %.1f, expected ~200" rate

(* --- Greedy --- *)

let test_greedy_initial_burst_then_rate () =
  let build engine emit =
    Ispn_traffic.Greedy.create ~engine ~flow:0 ~rate_pps:100. ~burst_packets:10
      ~emit ()
  in
  let _, times = collect_source build ~duration:0.1 in
  let at_zero = List.filter (fun (t, _) -> t = 0.) times in
  Alcotest.(check int) "opening burst" 10 (List.length at_zero);
  (* Steady packets every 10 ms afterwards. *)
  Alcotest.(check int) "burst + steady" 20 (List.length times)

let test_greedy_keeps_bucket_empty () =
  (* A greedy source sized to its token bucket is entirely conforming but
     leaves the bucket empty at all times — the paper's worst case. *)
  let engine = Engine.create () in
  let bucket =
    Ispn_traffic.Token_bucket.create ~rate_bps:100_000. ~depth_bits:10_000. ()
  in
  let p =
    Ispn_traffic.Token_bucket.policer ~engine ~bucket
      ~mode:Ispn_traffic.Token_bucket.Drop ~next:(fun _ -> ())
  in
  let src =
    Ispn_traffic.Greedy.create ~engine ~flow:0 ~rate_pps:100. ~burst_packets:10
      ~emit:(Ispn_traffic.Token_bucket.admit_fn p) ()
  in
  src.Ispn_traffic.Source.start ();
  Engine.run engine ~until:2.;
  Alcotest.(check int) "fully conforming" 0
    (Ispn_traffic.Token_bucket.dropped p);
  let level = Ispn_traffic.Token_bucket.level_bits bucket ~now:(Engine.now engine) in
  (* Between emissions the bucket refills by at most one packet. *)
  if level > 1100. then Alcotest.failf "bucket not kept empty: %.0f bits" level

let test_greedy_overdrive_violates () =
  let engine = Engine.create () in
  let bucket =
    Ispn_traffic.Token_bucket.create ~rate_bps:100_000. ~depth_bits:10_000. ()
  in
  let p =
    Ispn_traffic.Token_bucket.policer ~engine ~bucket
      ~mode:Ispn_traffic.Token_bucket.Drop ~next:(fun _ -> ())
  in
  let src =
    Ispn_traffic.Greedy.create ~engine ~flow:0 ~rate_pps:100. ~burst_packets:0
      ~overdrive:2. ~emit:(Ispn_traffic.Token_bucket.admit_fn p) ()
  in
  src.Ispn_traffic.Source.start ();
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "misbehaviour detected" true
    (Ispn_traffic.Token_bucket.dropped p > 0)

let suite =
  [
    Alcotest.test_case "onoff idle-mean relation" `Quick
      test_onoff_idle_mean_relation;
    Alcotest.test_case "onoff average rate" `Quick test_onoff_average_rate;
    Alcotest.test_case "onoff peak spacing" `Quick test_onoff_peak_spacing;
    Alcotest.test_case "onoff seq numbers" `Quick test_onoff_seq_numbers;
    Alcotest.test_case "onoff stop" `Quick test_onoff_stop;
    Alcotest.test_case "onoff determinism" `Quick test_onoff_determinism;
    Alcotest.test_case "cbr exact spacing" `Quick test_cbr_exact_spacing;
    Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
    Alcotest.test_case "greedy burst then rate" `Quick
      test_greedy_initial_burst_then_rate;
    Alcotest.test_case "greedy keeps bucket empty" `Quick
      test_greedy_keeps_bucket_empty;
    Alcotest.test_case "greedy overdrive violates" `Quick
      test_greedy_overdrive_violates;
  ]
