open Ispn_sim
open Helpers

let make ?ewma_gain ?discard_late_above ?(capacity = 1000) () =
  Ispn_sched.Fifo_plus.create ?ewma_gain ?discard_late_above
    ~pool:(Qdisc.pool ~capacity) ()

let test_first_hop_is_fifo () =
  (* With zero offsets (first hop), FIFO+ must order exactly like FIFO. *)
  let _, qdisc = make () in
  let arrivals = burst ~flow:0 ~at:0. ~n:5 @ burst ~flow:1 ~at:0.0001 ~n:3 in
  let records = run_schedule ~qdisc ~arrivals ~until:1. () in
  let order = List.map (fun r -> r.r_flow) records in
  Alcotest.(check (list int)) "fifo order" [ 0; 0; 0; 0; 0; 1; 1; 1 ] order

let test_positive_offset_jumps_queue () =
  (* A packet that was unlucky upstream (offset > 0) must overtake packets
     that arrived slightly earlier. *)
  let _, q = make () in
  let a = pkt ~flow:0 ~seq:0 () in
  let b = pkt ~flow:1 ~seq:0 () in
  Packet.set_offset b (0.010);
  (* b "should have" arrived 10 ms ago. *)
  ignore (q.Qdisc.enqueue ~now:1.000 a);
  ignore (q.Qdisc.enqueue ~now:1.001 b);
  let first = Option.get (q.Qdisc.dequeue ~now:1.002) in
  Alcotest.(check int) "late packet served first" 1 (Packet.flow first)

let test_negative_offset_yields () =
  (* A packet that was lucky upstream steps back behind one that arrived
     just after it. *)
  let _, q = make () in
  let a = pkt ~flow:0 ~seq:0 () in
  Packet.set_offset a (-0.010);
  let b = pkt ~flow:1 ~seq:0 () in
  ignore (q.Qdisc.enqueue ~now:1.000 a);
  ignore (q.Qdisc.enqueue ~now:1.001 b);
  let first = Option.get (q.Qdisc.dequeue ~now:1.002) in
  Alcotest.(check int) "lucky packet yields" 1 (Packet.flow first)

let test_offset_accumulates_delay_minus_average () =
  let st, q = make ~ewma_gain:1.0 () in
  (* First packet waits 5 ms against average 0: exports offset 5 ms and the
     average becomes 5 ms. *)
  let a = pkt ~seq:0 () in
  ignore (q.Qdisc.enqueue ~now:0. a);
  ignore (q.Qdisc.dequeue ~now:0.005);
  Alcotest.(check (float 1e-9)) "offset = delay - 0" 0.005 (Packet.offset a);
  Alcotest.(check (float 1e-9)) "avg updated" 0.005
    (Ispn_sched.Fifo_plus.avg_delay st);
  (* Second packet waits 1 ms against average 5 ms: offset -4 ms. *)
  let b = pkt ~seq:1 () in
  ignore (q.Qdisc.enqueue ~now:0.010 b);
  ignore (q.Qdisc.dequeue ~now:0.011);
  Alcotest.(check (float 1e-9)) "negative deviation" (-0.004) (Packet.offset b)

let test_late_discard () =
  let st, q = make ~discard_late_above:0.1 () in
  let late = pkt () in
  Packet.set_offset late (0.2);
  Alcotest.(check bool) "rejected" false (q.Qdisc.enqueue ~now:0. late);
  Alcotest.(check int) "counted" 1 (Ispn_sched.Fifo_plus.discarded st);
  let fine = pkt ~seq:1 () in
  Packet.set_offset fine (0.05);
  Alcotest.(check bool) "accepted" true (q.Qdisc.enqueue ~now:0. fine)

let test_buffer_limit () =
  let _, q = make ~capacity:2 () in
  Alcotest.(check bool) "1" true (q.Qdisc.enqueue ~now:0. (pkt ~seq:0 ()));
  Alcotest.(check bool) "2" true (q.Qdisc.enqueue ~now:0. (pkt ~seq:1 ()));
  Alcotest.(check bool) "3 drops" false (q.Qdisc.enqueue ~now:0. (pkt ~seq:2 ()))

let qcheck_zero_offsets_fifo =
  QCheck.Test.make ~name:"FIFO+ with zero offsets == FIFO" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 30) (int_bound 3))
    (fun flows ->
      let _, q = make () in
      List.iteri
        (fun i f ->
          ignore
            (q.Qdisc.enqueue ~now:(float_of_int i *. 1e-4) (pkt ~flow:f ~seq:i ())))
        flows;
      let rec drain acc =
        match q.Qdisc.dequeue ~now:1. with
        | None -> List.rev acc
        | Some p -> drain ((Packet.seq p) :: acc)
      in
      let seqs = drain [] in
      seqs = List.sort compare seqs)

let qcheck_conservation =
  QCheck.Test.make ~name:"FIFO+ conserves accepted packets" ~count:200
    QCheck.(list_of_size (Gen.int_range 0 40) (float_range (-0.01) 0.01))
    (fun offsets ->
      let _, q = make () in
      let accepted = ref 0 in
      List.iteri
        (fun i off ->
          let p = pkt ~seq:i () in
          Packet.set_offset p (off);
          if q.Qdisc.enqueue ~now:0.5 p then incr accepted)
        offsets;
      let rec drain k =
        match q.Qdisc.dequeue ~now:1. with None -> k | Some _ -> drain (k + 1)
      in
      drain 0 = !accepted)

(* The class-average gain (DESIGN.md §5): a fast average (1/16) mutes the
   jitter offsets and FIFO+ degenerates toward FIFO; the slow default
   (1/4096) recovers the multi-hop tail reduction on the Figure-1 chain. *)
let test_gain_ablation_direction () =
  let four_hop_p999 ewma_gain =
    let qdisc_of _engine ~pool _link =
      snd (Ispn_sched.Fifo_plus.create ~ewma_gain ~pool ())
    in
    let results, _ =
      Csz.Experiment.run ~qdisc_of ~duration:120. ~seed:42L
        (Csz.Scenario.figure1 ())
    in
    (List.find (fun (r : Csz.Experiment.flow_result) -> r.flow = 0) results)
      .p999
  in
  Alcotest.(check bool) "slow gain beats fast gain at 4 hops" true
    (four_hop_p999 (1. /. 4096.) < four_hop_p999 (1. /. 16.))

let suite =
  [
    Alcotest.test_case "first hop is FIFO" `Quick test_first_hop_is_fifo;
    Alcotest.test_case "positive offset jumps queue" `Quick
      test_positive_offset_jumps_queue;
    Alcotest.test_case "negative offset yields" `Quick
      test_negative_offset_yields;
    Alcotest.test_case "offset accumulates delay minus average" `Quick
      test_offset_accumulates_delay_minus_average;
    Alcotest.test_case "late discard" `Quick test_late_discard;
    Alcotest.test_case "buffer limit" `Quick test_buffer_limit;
    QCheck_alcotest.to_alcotest qcheck_zero_offsets_fifo;
    QCheck_alcotest.to_alcotest qcheck_conservation;
    Alcotest.test_case "gain ablation direction" `Slow
      test_gain_ablation_direction;
  ]
