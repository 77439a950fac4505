module Table = Ispn_util.Table

let f2 = Table.fmt_float ~decimals:2

let table1 runs ~sample_flow =
  let rows =
    List.map
      (fun (sched, results, _info) ->
        let r =
          List.find
            (fun (fr : Experiment.flow_result) -> fr.flow = sample_flow)
            results
        in
        [ Experiment.sched_name sched; f2 r.mean; f2 r.p999 ])
      runs
  in
  let util =
    match runs with
    | (_, _, info) :: _ ->
        Printf.sprintf "\nLink utilization: %.1f%%"
          (100. *. info.Experiment.utilization.(0))
    | [] -> ""
  in
  Table.render ~header:[ "scheduling"; "mean"; "99.9 %ile" ] ~rows () ^ util

let table2 runs ~sample_flows =
  let header =
    "scheduling"
    :: List.concat_map
         (fun flow ->
           ignore flow;
           [ "mean"; "99.9 %ile" ])
         sample_flows
  in
  let path_header =
    "path len"
    :: List.concat_map
         (fun flow ->
           let spec =
             List.find
               (fun s -> s.Scenario.flow = flow)
               Scenario.figure1_flows
           in
           let h = string_of_int (Scenario.hops spec) in
           [ h; h ])
         sample_flows
  in
  let rows =
    List.map
      (fun (sched, results) ->
        Experiment.sched_name sched
        :: List.concat_map
             (fun flow ->
               let r =
                 List.find
                   (fun (fr : Experiment.flow_result) -> fr.flow = flow)
                   results
               in
               [ f2 r.mean; f2 r.p999 ])
             sample_flows)
      runs
  in
  Table.render ~header ~rows:(path_header :: rows) ()

let table3 (res : Experiment.t3_result) =
  let open Experiment in
  let guaranteed, predicted =
    List.partition (fun row -> Option.is_some row.pg_bound) res.rows
  in
  let g_rows =
    List.map
      (fun row ->
        [
          row.label;
          string_of_int row.t3_hops;
          f2 row.t3_mean;
          f2 row.t3_p999;
          f2 row.t3_max;
          (match row.pg_bound with Some b -> f2 b | None -> "-");
        ])
      guaranteed
  in
  let p_rows =
    List.map
      (fun row ->
        [
          row.label;
          string_of_int row.t3_hops;
          f2 row.t3_mean;
          f2 row.t3_p999;
          f2 row.t3_max;
        ])
      predicted
  in
  let g_table =
    Table.render
      ~header:[ "type"; "path len"; "mean"; "99.9 %ile"; "max"; "P-G bound" ]
      ~rows:g_rows ()
  in
  let p_table =
    Table.render
      ~header:[ "type"; "path len"; "mean"; "99.9 %ile"; "max" ]
      ~rows:p_rows ()
  in
  let util_line =
    let total =
      Array.fold_left ( +. ) 0. res.info.utilization
      /. float_of_int (Array.length res.info.utilization)
    in
    let rt =
      Array.fold_left ( +. ) 0. res.realtime_utilization
      /. float_of_int (Array.length res.realtime_utilization)
    in
    Printf.sprintf
      "Mean link utilization: %.1f%% (real-time %.1f%%); datagram drop rate \
       %.2f%%; buffer drops %d"
      (100. *. total) (100. *. rt)
      (100. *. res.datagram_drop_rate)
      res.info.net_dropped
  in
  let tcp_lines =
    List.map
      (fun t ->
        Printf.sprintf
          "TCP flow %d: goodput %.0f bps, delivered %d, sent %d, loss %.2f%%"
          t.tcp_flow t.goodput_bps t.delivered t.segments_sent
          (100. *. t.loss_rate))
      res.tcp
  in
  String.concat "\n"
    ([ "Guaranteed Service"; g_table; ""; "Predicted Service"; p_table; "" ]
    @ tcp_lines @ [ util_line ])

let figure1 () =
  let b = Buffer.create 512 in
  Buffer.add_string b
    "Host-1   Host-2   Host-3   Host-4   Host-5\n\
    \  |        |        |        |        |\n\
    \ S-1 ---- S-2 ---- S-3 ---- S-4 ---- S-5\n\
    \      L-1      L-2      L-3      L-4   (1 Mbit/s each)\n\n";
  Buffer.add_string b "Flow layout (22 flows, 10 per link):\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "  flow %2d: S-%d -> S-%d (length %d)\n"
           s.Scenario.flow (s.Scenario.ingress + 1) (s.Scenario.egress + 1)
           (Scenario.hops s)))
    Scenario.figure1_flows;
  Buffer.contents b

let flow_results results =
  let rows =
    List.map
      (fun (r : Experiment.flow_result) ->
        [
          string_of_int r.flow;
          string_of_int r.hops;
          string_of_int r.received;
          f2 r.mean;
          f2 r.p999;
          f2 r.max;
        ])
      results
  in
  Table.render
    ~header:[ "flow"; "hops"; "received"; "mean"; "99.9 %ile"; "max" ]
    ~rows ()

(* --- Observability ------------------------------------------------------- *)

let obs_footer labeled =
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, snap) ->
      let get name =
        List.find_map
          (fun (n, v) -> if String.equal n name then Some v else None)
          snap
      in
      let str = function
        | Some (Ispn_obs.Metrics.Int i) -> string_of_int i
        | Some (Ispn_obs.Metrics.Float f) -> Printf.sprintf "%.9g" f
        | None -> "-"
      in
      Buffer.add_string buf
        (Printf.sprintf "[obs] %s: events=%s cancels_skipped=%s heap_hwm=%s\n"
           label
           (str (get "engine.events_fired"))
           (str (get "engine.cancels_skipped"))
           (str (get "engine.heap_depth_hwm")));
      let ms name =
        match get name with
        | Some (Ispn_obs.Metrics.Float f) -> Printf.sprintf "%.3f" (1000. *. f)
        | _ -> "-"
      in
      let link = ref 0 in
      let continue = ref true in
      while !continue do
        let p = Printf.sprintf "link.%d" !link in
        match get (p ^ ".sent") with
        | None -> continue := false
        | Some _ ->
            Buffer.add_string buf
              (Printf.sprintf
                 "[obs] %s: %s sent=%s drops(buf/down/wire)=%s/%s/%s \
                  pool_hwm=%s wait(mean/max)=%s/%s ms\n"
                 label p
                 (str (get (p ^ ".sent")))
                 (str (get (p ^ ".drops.buffer")))
                 (str (get (p ^ ".drops.down")))
                 (str (get (p ^ ".drops.wire")))
                 (str (get (p ^ ".pool.in_use_hwm")))
                 (ms (p ^ ".wait.mean"))
                 (ms (p ^ ".wait.max")));
            incr link
      done;
      (* One tail line per histogram channel ([Ispn_obs.Hist] registers
         hist.<ch>.{count,p50,...} when a --series run shares the metrics
         registry); the snapshot is name-sorted, so channels print in a
         stable order. *)
      let dot_count = ".count" in
      List.iter
        (fun (name, v) ->
          let n = String.length name in
          match v with
          | Ispn_obs.Metrics.Int count
            when n > 5 + String.length dot_count
                 && String.sub name 0 5 = "hist."
                 && String.sub name (n - String.length dot_count)
                      (String.length dot_count)
                    = dot_count ->
              let ch = String.sub name 5 (n - 5 - String.length dot_count) in
              let q s = ms ("hist." ^ ch ^ s) in
              Buffer.add_string buf
                (Printf.sprintf
                   "[obs] %s: hist %s n=%d p50/p90/p99/p999=%s/%s/%s/%s ms\n"
                   label ch count (q ".p50") (q ".p90") (q ".p99") (q ".p999"))
          | _ -> ())
        snap)
    labeled;
  Buffer.contents buf

let trace (res : Extensions.trace_result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Flight recorder over %s: %d events retained (capacity %d), %d \
        packets reconstructed, %d complete.\n\
        Worst packets by end-to-end queueing delay (packet times):\n"
       (Extensions.trace_experiment_name res.Extensions.tre_experiment)
       res.Extensions.tre_events res.Extensions.tre_capacity
       res.Extensions.tre_delivered res.Extensions.tre_complete);
  List.iter
    (fun (r : Extensions.trace_row) ->
      Buffer.add_string buf
        (Printf.sprintf "flow %d seq %d: e2e %s (probe %s)\n" r.tr_flow
           r.tr_seq (f2 r.tr_queueing) (f2 r.tr_reported));
      List.iter
        (fun (h : Extensions.trace_hop) ->
          Buffer.add_string buf
            (Printf.sprintf "  hop L-%d: queue %s + tx %s\n" (h.th_link + 1)
               (f2 h.th_queueing) (f2 h.th_transmission)))
        r.tr_hops)
    res.Extensions.tre_rows;
  Buffer.contents buf
