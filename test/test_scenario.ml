module Scenario = Csz.Scenario

let test_flow_count () =
  Alcotest.(check int) "22 flows" 22 (List.length Scenario.figure1_flows)

let test_path_length_distribution () =
  let count len =
    List.length
      (List.filter (fun f -> Scenario.hops f = len) Scenario.figure1_flows)
  in
  Alcotest.(check int) "length 1" 12 (count 1);
  Alcotest.(check int) "length 2" 4 (count 2);
  Alcotest.(check int) "length 3" 4 (count 3);
  Alcotest.(check int) "length 4" 2 (count 4)

let test_ten_flows_per_link () =
  for link = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "link %d" link)
      10
      (List.length (Scenario.flows_on_link link))
  done

let test_unique_flow_ids () =
  let ids = List.map (fun f -> f.Scenario.flow) Scenario.figure1_flows in
  Alcotest.(check int) "distinct" 22 (List.length (List.sort_uniq compare ids))

let test_table3_per_link_mix () =
  (* The paper: each link carries 2 Guaranteed-Peak, 1 Guaranteed-Average,
     3 Predicted-High and 4 Predicted-Low. *)
  for link = 0 to 3 do
    let on_link = Scenario.flows_on_link link in
    let count cls =
      List.length
        (List.filter
           (fun f -> Scenario.table3_class_of f.Scenario.flow = cls)
           on_link)
    in
    Alcotest.(check int)
      (Printf.sprintf "GP on link %d" link)
      2
      (count Scenario.Guaranteed_peak);
    Alcotest.(check int)
      (Printf.sprintf "GA on link %d" link)
      1
      (count Scenario.Guaranteed_avg);
    Alcotest.(check int)
      (Printf.sprintf "PH on link %d" link)
      3
      (count Scenario.Predicted_high);
    Alcotest.(check int)
      (Printf.sprintf "PL on link %d" link)
      4
      (count Scenario.Predicted_low)
  done

let test_table3_totals () =
  let count cls =
    List.length
      (List.filter
         (fun f -> Scenario.table3_class_of f.Scenario.flow = cls)
         Scenario.figure1_flows)
  in
  (* "5 of the real-time flows are guaranteed service clients; 3 of these
     [at peak rate] ... 7 flows in the high priority class and the other 10
     flows in the low priority class." *)
  Alcotest.(check int) "3 Guaranteed-Peak" 3 (count Scenario.Guaranteed_peak);
  Alcotest.(check int) "2 Guaranteed-Average" 2 (count Scenario.Guaranteed_avg);
  Alcotest.(check int) "7 Predicted-High" 7 (count Scenario.Predicted_high);
  Alcotest.(check int) "10 Predicted-Low" 10 (count Scenario.Predicted_low)

let test_sample_flows_match_paper_rows () =
  (* Labels and path lengths of the eight sample rows, in the paper's
     order: Peak/4, Peak/2, Average/3, Average/1, High/4, High/2, Low/3,
     Low/1. *)
  let expected =
    [
      ("Peak", 4); ("Peak", 2); ("Average", 3); ("Average", 1);
      ("High", 4); ("High", 2); ("Low", 3); ("Low", 1);
    ]
  in
  let actual =
    List.map
      (fun (label, flow) ->
        let spec =
          List.find (fun f -> f.Scenario.flow = flow) Scenario.figure1_flows
        in
        (label, Scenario.hops spec))
      Scenario.table3_sample_flows
  in
  Alcotest.(check (list (pair string int))) "rows" expected actual

let test_tcp_paths_tile_links () =
  (* Every link carries exactly one datagram connection. *)
  let covering link =
    List.filter
      (fun (i, e) -> i <= link && link < e)
      Scenario.table3_tcp_paths
  in
  for link = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "link %d" link)
      1
      (List.length (covering link))
  done

let test_appendix_parameters () =
  Alcotest.(check (float 0.)) "A = 85" 85. Scenario.default_avg_rate_pps;
  Alcotest.(check (float 0.)) "bucket depth 50" 50.
    Scenario.token_bucket_depth_packets

(* A triangle with a shortcut: switch 0 reaches 2 directly, so a 0 -> 2
   flow's route is one link, not [egress - ingress = 2]. *)
let test_mesh_route_length_checked () =
  let mesh flows =
    {
      Scenario.n_switches = 3;
      links = [ (0, 1); (1, 2); (0, 2) ];
      flows;
      avg_rate_pps = Scenario.default_avg_rate_pps;
    }
  in
  let run sc =
    Csz.Experiment.run
      ~qdisc_of:(Csz.Experiment.qdisc Csz.Experiment.Fifo)
      ~duration:1. ~seed:42L sc
  in
  let f flow ingress egress = { Scenario.flow; ingress; egress } in
  let results, _ = run (mesh [ f 0 0 1; f 1 1 2 ]) in
  Alcotest.(check (list int)) "chain-like routes run" [ 1; 1 ]
    (List.map (fun (r : Csz.Experiment.flow_result) -> r.hops) results);
  Alcotest.check_raises "shortcut route rejected"
    (Invalid_argument
       "Experiment.run: flow 7 has route length 1, not egress - ingress = 2")
    (fun () -> ignore (run (mesh [ f 0 0 1; f 7 0 2 ])))

let suite =
  [
    Alcotest.test_case "flow count" `Quick test_flow_count;
    Alcotest.test_case "path length distribution" `Quick
      test_path_length_distribution;
    Alcotest.test_case "ten flows per link" `Quick test_ten_flows_per_link;
    Alcotest.test_case "unique flow ids" `Quick test_unique_flow_ids;
    Alcotest.test_case "table3 per-link mix" `Quick test_table3_per_link_mix;
    Alcotest.test_case "table3 totals" `Quick test_table3_totals;
    Alcotest.test_case "sample flows match paper rows" `Quick
      test_sample_flows_match_paper_rows;
    Alcotest.test_case "tcp paths tile links" `Quick test_tcp_paths_tile_links;
    Alcotest.test_case "appendix parameters" `Quick test_appendix_parameters;
    Alcotest.test_case "mesh route length checked" `Quick
      test_mesh_route_length_checked;
  ]
