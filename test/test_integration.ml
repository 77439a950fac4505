(* Miniature versions of the paper's experiments asserting their qualitative
   shape.  Durations are short (tens of simulated seconds) so `dune runtest`
   stays fast; the full 600 s reproductions live in bench/main.exe. *)
module E = Csz.Experiment

(* Table 1's single link under one scheduler. *)
let single_link ~sched ~duration ?(seed = 42L) () =
  E.run ~qdisc_of:(E.qdisc sched) ~duration ~seed
    (Csz.Scenario.single_link ())

let find_flow results flow =
  List.find (fun (r : E.flow_result) -> r.flow = flow) results

let test_table1_shape () =
  (* FIFO shares jitter: its 99.9th percentile beats WFQ's at equal mean. *)
  let wfq, info_w = single_link ~sched:E.Wfq ~duration:120. () in
  let fifo, info_f = single_link ~sched:E.Fifo ~duration:120. () in
  let w = find_flow wfq 0 and f = find_flow fifo 0 in
  Alcotest.(check bool) "tails: FIFO < WFQ" true (f.E.p999 < w.E.p999);
  if Float.abs (f.E.mean -. w.E.mean) > 1.5 then
    Alcotest.failf "means diverge: %.2f vs %.2f" f.E.mean w.E.mean;
  (* The Appendix's load: ~83.5% utilization, ~2% source drops. *)
  let util = info_f.E.utilization.(0) in
  if util < 0.80 || util > 0.87 then Alcotest.failf "utilization %.3f" util;
  let drop =
    float_of_int info_w.E.source_dropped /. float_of_int info_w.E.offered
  in
  if drop < 0.005 || drop > 0.05 then Alcotest.failf "source drop %.3f" drop

let test_table2_shape () =
  (* Multi-hop: everyone's tail grows with path length; FIFO+ grows slowest
     and wins at four hops. *)
  let fifo, _ = E.run_figure1 ~sched:E.Fifo ~duration:120. () in
  let fplus, _ = E.run_figure1 ~sched:E.Fifo_plus ~duration:120. () in
  let wfq, _ = E.run_figure1 ~sched:E.Wfq ~duration:120. () in
  List.iter
    (fun results ->
      let one = find_flow results 18 and four = find_flow results 0 in
      Alcotest.(check bool) "tail grows with hops" true
        (four.E.p999 > one.E.p999))
    [ fifo; fplus; wfq ];
  let f4 = (find_flow fifo 0).E.p999
  and p4 = (find_flow fplus 0).E.p999
  and w4 = (find_flow wfq 0).E.p999 in
  Alcotest.(check bool) "FIFO+ < FIFO at 4 hops" true (p4 < f4);
  Alcotest.(check bool) "FIFO+ < WFQ at 4 hops" true (p4 < w4)

let test_table3_shape () =
  let res = E.run_table3 ~duration:120. () in
  (* Guaranteed flows never exceed their Parekh-Gallager bounds. *)
  List.iter
    (fun (row : E.t3_row) ->
      match row.E.pg_bound with
      | Some bound ->
          if row.E.t3_max > bound then
            Alcotest.failf "flow %d max %.2f exceeds P-G bound %.2f"
              row.E.t3_flow row.E.t3_max bound
      | None -> ())
    res.E.rows;
  let get label hops =
    List.find
      (fun (r : E.t3_row) -> r.E.label = label && r.E.t3_hops = hops)
      res.E.rows
  in
  (* Peak-rate clocks buy much lower delay than average-rate clocks. *)
  Alcotest.(check bool) "Peak/2 < Average/1 tail" true
    ((get "Peak" 2).E.t3_p999 < (get "Average" 1).E.t3_p999);
  (* The high priority class beats the low one. *)
  Alcotest.(check bool) "High/4 < Low/3 tail" true
    ((get "High" 4).E.t3_p999 < (get "Low" 3).E.t3_p999);
  Alcotest.(check bool) "High/2 < Low/1 tail" true
    ((get "High" 2).E.t3_p999 < (get "Low" 1).E.t3_p999);
  (* The link is nearly saturated: real-time at ~83.5%, TCP filling the
     rest to >95%. *)
  Array.iteri
    (fun i u ->
      if u < 0.95 then Alcotest.failf "link %d utilization only %.3f" i u)
    res.E.info.E.utilization;
  Array.iteri
    (fun i u ->
      if u < 0.78 || u > 0.88 then
        Alcotest.failf "link %d real-time utilization %.3f" i u)
    res.E.realtime_utilization;
  (* Both TCP connections make progress with a small loss rate. *)
  List.iter
    (fun (t : E.tcp_result) ->
      Alcotest.(check bool) "tcp progresses" true (t.E.delivered > 1000);
      if t.E.loss_rate > 0.05 then
        Alcotest.failf "tcp loss %.3f too high" t.E.loss_rate)
    res.E.tcp

let test_determinism () =
  let run () = single_link ~sched:E.Fifo ~duration:20. ~seed:7L () in
  let a, _ = run () and b, _ = run () in
  Alcotest.(check bool) "identical results for identical seeds" true (a = b)

let test_seed_changes_results () =
  let a, _ = single_link ~sched:E.Fifo ~duration:20. ~seed:1L () in
  let b, _ = single_link ~sched:E.Fifo ~duration:20. ~seed:2L () in
  Alcotest.(check bool) "different seeds differ" false (a = b)

(* A run ends with packets queued and on the wire; it frees them before
   returning, so the calling domain's live count is where it was. *)
let test_leftovers_freed () =
  let in_use () = (Ispn_sim.Packet.pool_stats ()).Ispn_sim.Packet.p_in_use in
  let base = in_use () in
  List.iter
    (fun sched ->
      let at_end = ref 0 in
      let wire (w : E.wiring) () =
        ignore
          (Ispn_sim.Engine.schedule w.E.engine ~at:20. (fun () ->
               at_end := in_use ()))
      in
      ignore
        (E.run ~wire ~qdisc_of:(E.qdisc sched) ~duration:20. ~seed:3L
           (Csz.Scenario.figure1 ()));
      let name = E.sched_name sched in
      if !at_end <= base then
        Alcotest.failf "%s: no packet in flight at the end (%d live)" name
          !at_end;
      Alcotest.(check int) (name ^ ": live packets after the run") base
        (in_use ()))
    [ E.Fifo; E.Wfq ]

let suite =
  [
    Alcotest.test_case "table 1 shape" `Slow test_table1_shape;
    Alcotest.test_case "table 2 shape" `Slow test_table2_shape;
    Alcotest.test_case "table 3 shape" `Slow test_table3_shape;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_results;
    Alcotest.test_case "leftover packets freed" `Quick test_leftovers_freed;
  ]
