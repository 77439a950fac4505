open Ispn_sim
open Helpers
module Csz_sched = Csz.Csz_sched

let make ?(capacity = 500) ?(n_classes = 2) ?discard_late_above () =
  let pool = Qdisc.pool ~capacity in
  let config =
    {
      Csz_sched.default_config with
      n_predicted_classes = n_classes;
      discard_late_above;
    }
  in
  Csz_sched.create ~config ~pool ()

let test_unknown_flows_are_datagram () =
  let st, q = make () in
  Alcotest.(check int) "datagram class index" 2 (Csz_sched.datagram_class st);
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:99 ()));
  Alcotest.(check int) "queued" 1 (q.Qdisc.length ());
  let served = ref (-1) in
  Csz_sched.set_delay_hook st (fun ~cls _ -> served := cls);
  ignore (q.Qdisc.dequeue ~now:0.);
  Alcotest.(check int) "served as datagram" 2 !served

let test_priority_between_predicted_classes () =
  let st, q = make () in
  Csz_sched.set_predicted st ~flow:0 ~cls:0;
  Csz_sched.set_predicted st ~flow:1 ~cls:1;
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:1 ~seq:0 ()));
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:1 ~seq:1 ()));
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:0 ~seq:0 ()));
  let order =
    List.init 3 (fun _ -> (Packet.flow (Option.get (q.Qdisc.dequeue ~now:0.))))
  in
  Alcotest.(check (list int)) "high class first" [ 0; 1; 1 ] order

let test_datagram_below_predicted () =
  let st, q = make () in
  Csz_sched.set_predicted st ~flow:0 ~cls:1;
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:50 ~seq:0 ()));
  (* datagram *)
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:0 ~seq:0 ()));
  (* predicted low *)
  Alcotest.(check int) "predicted beats datagram" 0
    (Packet.flow (Option.get (q.Qdisc.dequeue ~now:0.)))

let test_guaranteed_isolated_from_flood () =
  (* A datagram flood shares the link with one guaranteed flow at half the
     link rate.  The guaranteed flow's packets, paced at their clock rate,
     must each see at most about one packet time of queueing. *)
  let st, q = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:5e5;
  let flood = burst ~flow:99 ~at:0. ~n:300 in
  let paced_g = paced ~flow:1 ~at:0.0005 ~gap:0.002 ~n:100 in
  let records = run_schedule ~qdisc:q ~arrivals:(flood @ paced_g) ~until:1. () in
  let g_max = max_wait (flows_served records 1) in
  if g_max > 0.0025 then
    Alcotest.failf "guaranteed flow dragged into flood: %.6fs" g_max

let test_flow0_gets_leftover_share () =
  (* Guaranteed reserved at 80% and continuously backlogged; flow 0 still
     gets roughly its 20% when backlogged too. *)
  (* The pool must hold both bursts or the later-arriving datagram burst is
     tail-dropped and the share measurement is meaningless. *)
  let st, q = make ~capacity:2000 () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:8e5;
  Alcotest.(check (float 1e-6)) "flow0 rate" 2e5 (Csz_sched.flow0_rate_bps st);
  let g = burst ~flow:1 ~at:0. ~n:500 in
  let d = burst ~flow:99 ~at:0. ~n:500 in
  let records = run_schedule ~qdisc:q ~arrivals:(g @ d) ~until:0.2 () in
  (* 200 served in 0.2 s; datagram should have close to 40 of them. *)
  let n_d = List.length (flows_served records 99) in
  if n_d < 30 || n_d > 50 then
    Alcotest.failf "flow 0 share off: %d of 200" n_d

let test_guaranteed_not_penalized_when_idle_resumes () =
  (* After idling, a guaranteed flow must immediately receive service at its
     clock rate (no banked debt). *)
  let st, q = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:5e5;
  let flood = burst ~flow:99 ~at:0. ~n:800 in
  let late_g = paced ~flow:1 ~at:0.5 ~gap:0.002 ~n:50 in
  let records = run_schedule ~qdisc:q ~arrivals:(flood @ late_g) ~until:1. () in
  let g_max = max_wait (flows_served records 1) in
  if g_max > 0.0025 then Alcotest.failf "late guaranteed flow starved: %.6fs" g_max

let test_fifo_plus_offsets_updated () =
  let st, q = make () in
  Csz_sched.set_predicted st ~flow:0 ~cls:0;
  let a = pkt ~flow:0 ~seq:0 () in
  ignore (q.Qdisc.enqueue ~now:0. a);
  ignore (q.Qdisc.dequeue ~now:0.004);
  Alcotest.(check bool) "offset exported" true ((Packet.offset a) > 0.003);
  Alcotest.(check bool) "class average moved" true
    (Csz_sched.class_avg_delay st ~cls:0 > 0.)

let test_datagram_offsets_untouched () =
  let _, q = make () in
  let a = pkt ~flow:99 ~seq:0 () in
  ignore (q.Qdisc.enqueue ~now:0. a);
  ignore (q.Qdisc.dequeue ~now:0.004);
  Alcotest.(check (float 0.)) "no offset for datagram" 0. (Packet.offset a)

let test_late_discard () =
  let st, q = make ~discard_late_above:0.05 () in
  Csz_sched.set_predicted st ~flow:0 ~cls:0;
  let late = pkt ~flow:0 () in
  Packet.set_offset late (0.1);
  Alcotest.(check bool) "discarded" false (q.Qdisc.enqueue ~now:0. late);
  Alcotest.(check int) "counted" 1 (Csz_sched.late_discards st);
  (* Datagram packets are exempt (they carry no offsets). *)
  let d = pkt ~flow:99 () in
  Packet.set_offset d (0.1);
  Alcotest.(check bool) "datagram exempt" true (q.Qdisc.enqueue ~now:0. d)

let test_reservation_bookkeeping () =
  let st, _ = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:2e5;
  Csz_sched.add_guaranteed st ~flow:2 ~clock_rate_bps:3e5;
  Alcotest.(check (float 1e-6)) "reserved" 5e5
    (Csz_sched.guaranteed_reserved_bps st);
  Csz_sched.remove_guaranteed st ~flow:1;
  Alcotest.(check (float 1e-6)) "after remove" 3e5
    (Csz_sched.guaranteed_reserved_bps st);
  Alcotest.check_raises "unknown flow"
    (Invalid_argument "Csz_sched.remove_guaranteed: unknown flow") (fun () ->
      Csz_sched.remove_guaranteed st ~flow:1)

let test_overbooking_rejected () =
  let st, _ = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:9e5;
  try
    Csz_sched.add_guaranteed st ~flow:2 ~clock_rate_bps:2e5;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_guaranteed_and_predicted_exclusive () =
  let st, _ = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:1e5;
  try
    Csz_sched.set_predicted st ~flow:1 ~cls:0;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_retiring_flow_drains_first () =
  let st, q = make () in
  Csz_sched.add_guaranteed st ~flow:1 ~clock_rate_bps:1e5;
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:1 ~seq:0 ()));
  Csz_sched.remove_guaranteed st ~flow:1;
  (* Still reserved while backlogged... *)
  Alcotest.(check (float 1e-6)) "still reserved" 1e5
    (Csz_sched.guaranteed_reserved_bps st);
  ignore (q.Qdisc.dequeue ~now:0.001);
  (* ...and released once drained. *)
  Alcotest.(check (float 1e-6)) "released after drain" 0.
    (Csz_sched.guaranteed_reserved_bps st)

let test_bit_accounting () =
  let st, q = make () in
  Csz_sched.set_predicted st ~flow:0 ~cls:0;
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:0 ()));
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:99 ()));
  ignore (q.Qdisc.dequeue ~now:0.);
  ignore (q.Qdisc.dequeue ~now:0.);
  Alcotest.(check int) "realtime bits" 1000 (Csz_sched.realtime_bits_sent st);
  Alcotest.(check int) "datagram bits" 1000 (Csz_sched.datagram_bits_sent st)

let qcheck_conservation =
  QCheck.Test.make ~name:"CSZ conserves packets across all three services"
    ~count:100
    QCheck.(list_of_size (Gen.int_range 0 60) (int_bound 5))
    (fun flows ->
      let st, q = make () in
      Csz_sched.add_guaranteed st ~flow:0 ~clock_rate_bps:1e5;
      Csz_sched.set_predicted st ~flow:1 ~cls:0;
      Csz_sched.set_predicted st ~flow:2 ~cls:1;
      (* Flows 3-5 are datagram. *)
      let accepted = ref 0 in
      List.iteri
        (fun i f ->
          if q.Qdisc.enqueue ~now:(float_of_int i *. 1e-4) (pkt ~flow:f ~seq:i ())
          then incr accepted)
        flows;
      let rec drain k =
        match q.Qdisc.dequeue ~now:1. with None -> k | Some _ -> drain (k + 1)
      in
      drain 0 = !accepted && q.Qdisc.length () = 0)

(* Finish tags are forgotten at a busy-period end for every slot, however
   high the flow id: a guaranteed flow at id 5,000 (beyond the 4,096 slots
   the old zero-filled array reached) leaves a tag in a first busy period,
   and the second busy period must serve exactly as a fresh scheduler
   would.  Under a stale tag the guaranteed packet would start at 3 packet
   times / 0.15 and fall behind every datagram below. *)
let test_high_id_tag_forgotten_between_busy_periods () =
  let g = 5000 in
  let served_order st q =
    List.init (q.Qdisc.length ()) (fun _ ->
        let served = ref (-2) in
        Csz_sched.set_delay_hook st (fun ~cls _ -> served := cls);
        ignore (q.Qdisc.dequeue ~now:10.);
        !served)
  in
  let second_period st q =
    ignore (q.Qdisc.enqueue ~now:10. (pkt ~flow:g ~seq:2 ()));
    for i = 0 to 19 do
      ignore (q.Qdisc.enqueue ~now:10. (pkt ~flow:(100 + i) ()))
    done;
    served_order st q
  in
  let st, q = make () in
  Csz_sched.add_guaranteed st ~flow:g ~clock_rate_bps:150_000.;
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:g ~seq:0 ()));
  ignore (q.Qdisc.enqueue ~now:0. (pkt ~flow:g ~seq:1 ()));
  ignore (q.Qdisc.dequeue ~now:0.);
  ignore (q.Qdisc.dequeue ~now:0.);
  Alcotest.(check int) "first busy period drained" 0 (q.Qdisc.length ());
  let after_reuse = second_period st q in
  let fresh_st, fresh_q = make () in
  Csz_sched.add_guaranteed fresh_st ~flow:g ~clock_rate_bps:150_000.;
  let fresh = second_period fresh_st fresh_q in
  Alcotest.(check (list int)) "same order as a fresh scheduler" fresh
    after_reuse;
  (* 1000-bit packets: the guaranteed tag is 6.67 ms of virtual time,
     datagram k's is k * 1.18 ms, so it goes sixth (cls -1 = guaranteed). *)
  Alcotest.(check int) "guaranteed served sixth" 5
    (let rec index i = function
       | [] -> -1
       | c :: rest -> if c = -1 then i else index (i + 1) rest
     in
     index 0 after_reuse)

let suite =
  [
    Alcotest.test_case "unknown flows are datagram" `Quick
      test_unknown_flows_are_datagram;
    Alcotest.test_case "priority between predicted classes" `Quick
      test_priority_between_predicted_classes;
    Alcotest.test_case "datagram below predicted" `Quick
      test_datagram_below_predicted;
    Alcotest.test_case "guaranteed isolated from flood" `Quick
      test_guaranteed_isolated_from_flood;
    Alcotest.test_case "flow0 gets leftover share" `Quick
      test_flow0_gets_leftover_share;
    Alcotest.test_case "guaranteed fresh after idle" `Quick
      test_guaranteed_not_penalized_when_idle_resumes;
    Alcotest.test_case "fifo+ offsets updated" `Quick
      test_fifo_plus_offsets_updated;
    Alcotest.test_case "datagram offsets untouched" `Quick
      test_datagram_offsets_untouched;
    Alcotest.test_case "late discard" `Quick test_late_discard;
    Alcotest.test_case "reservation bookkeeping" `Quick
      test_reservation_bookkeeping;
    Alcotest.test_case "overbooking rejected" `Quick test_overbooking_rejected;
    Alcotest.test_case "guaranteed/predicted exclusive" `Quick
      test_guaranteed_and_predicted_exclusive;
    Alcotest.test_case "retiring flow drains first" `Quick
      test_retiring_flow_drains_first;
    Alcotest.test_case "bit accounting" `Quick test_bit_accounting;
    Alcotest.test_case "high-id tag forgotten between busy periods" `Quick
      test_high_id_tag_forgotten_between_busy_periods;
    QCheck_alcotest.to_alcotest qcheck_conservation;
  ]
