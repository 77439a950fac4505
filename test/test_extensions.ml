(* Fast (short-duration) versions of the extension experiments, asserting
   their qualitative shapes. *)
module X = Csz.Extensions
module E = Csz.Experiment

let find_result results flow =
  List.find (fun (r : E.flow_result) -> r.E.flow = flow) results

let test_cascade_monotone () =
  let rows = X.run_cascade ~duration:90. () in
  Alcotest.(check int) "classes + datagram" 5 (List.length rows);
  let tails = List.map (fun r -> r.X.c_p999) rows in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "tails grow down the ladder: %s"
       (String.concat ", " (List.map (Printf.sprintf "%.2f") tails)))
    true (non_decreasing tails)

let test_isolation_ordering () =
  let rows = X.run_isolation ~duration:60. () in
  match rows with
  | [ fifo; wfq; policed ] ->
      (* FIFO: cheater and honest suffer alike. *)
      Alcotest.(check bool) "fifo hurts honest" true
        (fifo.X.honest_p999 > 3. *. policed.X.honest_p999);
      (* WFQ: honest protected, cheater punished. *)
      Alcotest.(check bool) "wfq punishes cheater" true
        (wfq.X.cheat_p999 > 5. *. wfq.X.honest_p999);
      (* Edge policing keeps everyone low. *)
      Alcotest.(check bool) "policing restores" true
        (policed.X.honest_p999 < fifo.X.honest_p999)
  | _ -> Alcotest.fail "expected three rows"

let test_playback_ordering () =
  let rows = X.run_playback ~duration:120. () in
  let get name = List.find (fun r -> r.X.client = name) rows in
  let rigid = get "rigid" and adaptive = get "adaptive" and vat = get "vat" in
  Alcotest.(check (float 1e-6)) "rigid holds the advertised bound" 0.
    rigid.X.app_loss_rate;
  Alcotest.(check bool) "adaptive point below rigid" true
    (adaptive.X.mean_point < 0.7 *. rigid.X.mean_point);
  Alcotest.(check bool) "vat point below rigid" true
    (vat.X.mean_point < 0.7 *. rigid.X.mean_point);
  Alcotest.(check bool) "adaptive loss bounded" true
    (adaptive.X.app_loss_rate < 0.06);
  Alcotest.(check bool) "vat loss bounded" true (vat.X.app_loss_rate < 0.06)

let test_admission_ordering () =
  let rows = X.run_admission ~duration:150. () in
  let get p = List.find (fun r -> r.X.policy = p) rows in
  let measured = get X.Measured in
  let worst = get X.Worst_case in
  let open_door = get X.Open_door in
  Alcotest.(check bool) "same offered load" true
    (measured.X.requests = worst.X.requests
    && worst.X.requests = open_door.X.requests);
  Alcotest.(check bool) "measured admits at least as many" true
    (measured.X.accepted >= worst.X.accepted);
  Alcotest.(check bool) "open door admits everything" true
    (open_door.X.accepted = open_door.X.requests);
  Alcotest.(check (float 1e-9)) "measured keeps targets" 0.
    measured.X.violation_rate;
  Alcotest.(check (float 1e-9)) "worst-case keeps targets" 0.
    worst.X.violation_rate;
  Alcotest.(check bool) "open door violates heavily" true
    (open_door.X.violation_rate > 0.1)

let test_discard_tradeoff () =
  let rows = X.run_discard ~duration:60. () in
  match rows with
  | [ off; loose; tight ] ->
      Alcotest.(check bool) "off discards nothing" true
        (off.X.discarded_fraction = 0.);
      Alcotest.(check bool) "tighter threshold discards more" true
        (tight.X.discarded_fraction > loose.X.discarded_fraction);
      Alcotest.(check bool) "discard trims the tail" true
        (loose.X.p999_4hop <= off.X.p999_4hop)
  | _ -> Alcotest.fail "expected three rows"

let bakeoff_results runs s =
  (List.find (fun (row : X.bakeoff_row) -> row.X.bk_sched = s) runs)
    .X.bk_results

let test_bakeoff_edf_equals_fifo () =
  (* EDF with equal budgets must reproduce FIFO *exactly* (same packets,
     same order, same delays) — the strongest version of Section 5's
     observation.  MC-FIFO is FIFO by construction, so it must too. *)
  let runs = X.run_bakeoff ~duration:30. () in
  let get s = bakeoff_results runs s in
  Alcotest.(check bool) "identical results" true
    (get X.B_edf = get X.B_fifo);
  Alcotest.(check bool) "MC-FIFO identical to FIFO" true
    (get X.B_mc_fifo = get X.B_fifo)

let test_bakeoff_nwc_higher_means () =
  let runs = X.run_bakeoff ~duration:30. () in
  let mean4 s = (find_result (bakeoff_results runs s) 0).E.mean in
  Alcotest.(check bool) "Jitter-EDD mean far above FIFO" true
    (mean4 X.B_jitter_edd > 3. *. mean4 X.B_fifo);
  Alcotest.(check bool) "Stop-and-Go mean above FIFO" true
    (mean4 X.B_stop_and_go > 2. *. mean4 X.B_fifo)

let test_bakeoff_bounds_check_clean () =
  (* The shaper rows carry analytic bounds, the audit checks every
     delivered packet against them, and nothing violates. *)
  let runs = X.run_bakeoff ~duration:30. ~check:true () in
  List.iter
    (fun (row : X.bakeoff_row) ->
      let name = X.bakeoff_name row.X.bk_sched in
      (match (X.bakeoff_bound_kind row.X.bk_sched, row.X.bk_bounds) with
      | Some _, Some bs ->
          Alcotest.(check int) (name ^ " bound per flow") 22 (List.length bs);
          List.iter
            (fun (_, b) ->
              Alcotest.(check bool) (name ^ " bound positive") true (b > 0.))
            bs
      | None, None -> ()
      | _ -> Alcotest.fail (name ^ ": bounds iff shaper"));
      match row.X.bk_check with
      | None -> Alcotest.fail (name ^ ": expected a check summary")
      | Some s ->
          Alcotest.(check int) (name ^ " clean") 0 s.Ispn_check.Audit.violations;
          if X.bakeoff_bound_kind row.X.bk_sched <> None then
            let bound_checks =
              List.fold_left
                (fun acc (c : Ispn_check.Audit.inv_summary) ->
                  if c.Ispn_check.Audit.inv_name = "delay-bound" then
                    acc + c.Ispn_check.Audit.inv_checks
                  else acc)
                0 s.Ispn_check.Audit.invariants
            in
            Alcotest.(check bool) (name ^ " bound checks ran") true
              (bound_checks > 0))
    runs

let test_load_sweep_crossover () =
  let rows = X.run_load_sweep ~duration:150. ~points:[ 0.5; 0.9 ] () in
  match rows with
  | [ light; heavy ] ->
      let ratio r = r.X.wfq_p999 /. r.X.fifo_p999 in
      Alcotest.(check bool) "no gap at half load" true (ratio light < 1.1);
      Alcotest.(check bool) "clear gap near saturation" true
        (ratio heavy > 1.2);
      Alcotest.(check bool) "delays grow with load" true
        (heavy.X.fifo_p999 > light.X.fifo_p999)
  | _ -> Alcotest.fail "expected two points"

(* Table 2's four-hop ordering holds across seeds, not just for the
   headline one: FIFO+ < FIFO < WFQ on the seed-wise mean, and even
   FIFO+'s worst seed beats WFQ's best. *)
let test_seeds_ordering () =
  let rows = X.run_seed_robustness ~duration:60. () in
  let get sched = List.find (fun r -> r.X.seeds_sched = sched) rows in
  let fplus = get E.Fifo_plus and fifo = get E.Fifo and wfq = get E.Wfq in
  Alcotest.(check bool)
    (Printf.sprintf "mean FIFO+ %.2f < FIFO %.2f < WFQ %.2f"
       fplus.X.p999_mean fifo.X.p999_mean wfq.X.p999_mean)
    true
    (fplus.X.p999_mean < fifo.X.p999_mean && fifo.X.p999_mean < wfq.X.p999_mean);
  Alcotest.(check bool)
    (Printf.sprintf "FIFO+ max %.2f < WFQ min %.2f" fplus.X.p999_max
       wfq.X.p999_min)
    true
    (fplus.X.p999_max < wfq.X.p999_min)

let test_signaling_latency_grows_with_load () =
  let rows = X.run_signaling ~duration:60. ~loads:[ 0.; 0.9 ] () in
  match rows with
  | [ idle; loaded ] ->
      Alcotest.(check bool) "setups completed" true
        (idle.X.sig_setups > 30 && loaded.X.sig_setups > 30);
      (* Idle chain: ~6 ms deterministic. *)
      Alcotest.(check bool) "idle baseline" true
        (idle.X.sig_mean_ms > 5. && idle.X.sig_mean_ms < 7.);
      Alcotest.(check bool) "load slows establishment" true
        (loaded.X.sig_mean_ms > 2. *. idle.X.sig_mean_ms)
  | _ -> Alcotest.fail "expected two loads"

let test_failover_deterministic_and_shaped () =
  (* The rows are plain data, so structural equality across [-j] is the
     determinism contract verbatim. *)
  let r1 = X.run_failover ~duration:30. ~seed:42L ~j:1 () in
  let r2 = X.run_failover ~duration:30. ~seed:42L ~j:2 () in
  Alcotest.(check bool) "rows identical at every -j" true (r1 = r2);
  match r1 with
  | [ base; flap; loss; crash ] ->
      let final flow r =
        (List.find (fun f -> f.X.ff_flow = flow) r.X.fo_flows).X.ff_final
      in
      (* Fault-free reference: nothing lost, retried or degraded. *)
      Alcotest.(check int) "baseline: no retries" 0 base.X.fo_retries;
      Alcotest.(check int) "baseline: no loss" 0 base.X.fo_lost;
      Alcotest.(check int) "baseline: no degradation" 0 base.X.fo_degraded;
      Alcotest.(check string) "baseline keeps guaranteed" "guaranteed"
        (final 0 base);
      (* Outages and corruption lose data and force setup retries. *)
      Alcotest.(check bool) "flap loses packets" true
        (flap.X.fo_lost > base.X.fo_lost);
      Alcotest.(check bool) "flap forces retries" true (flap.X.fo_retries > 0);
      Alcotest.(check bool) "corruption loses packets" true
        (loss.X.fo_lost > 0);
      Alcotest.(check bool) "corruption forces retries" true
        (loss.X.fo_retries > 0);
      (* The crash recovers every flow through the dead switch, and the
         usurper pushes the watched flows down the ladder. *)
      Alcotest.(check int) "one crash" 1 crash.X.fo_crashes;
      Alcotest.(check bool) "crash re-establishes" true
        (crash.X.fo_reestablished >= 1);
      Alcotest.(check bool) "crash degrades" true (crash.X.fo_degraded >= 1);
      Alcotest.(check string) "guaranteed victim lands on predicted"
        "predicted" (final 0 crash);
      Alcotest.(check string) "predicted victim lands on datagram" "datagram"
        (final 1 crash)
  | _ -> Alcotest.fail "expected four schedules"

(* E12: the flight-recorder trace runner returns complete worst-case rows
   whose per-hop decomposition reproduces the probe's end-to-end delay
   (both sides already converted to packet-transmission times). *)
let test_trace_rows_shape () =
  List.iter
    (fun experiment ->
      let res = X.run_trace ~experiment ~worst:3 ~duration:20. () in
      Alcotest.(check string) "experiment echoed"
        (X.trace_experiment_name experiment)
        (X.trace_experiment_name res.X.tre_experiment);
      Alcotest.(check bool) "delivered some packets" true
        (res.X.tre_delivered > 0);
      Alcotest.(check bool) "complete reconstructions" true
        (res.X.tre_complete > 0);
      Alcotest.(check int) "asked for three rows" 3
        (List.length res.X.tre_rows);
      List.iter
        (fun row ->
          Alcotest.(check bool) "has hops" true (row.X.tr_hops <> []);
          let sum =
            List.fold_left
              (fun acc h -> acc +. h.X.th_queueing)
              0. row.X.tr_hops
          in
          Alcotest.(check (float 1e-6)) "hop queueing sums to probe delay"
            row.X.tr_reported sum;
          Alcotest.(check (float 1e-6)) "tr_queueing consistent"
            row.X.tr_queueing sum)
        res.X.tre_rows)
    [ X.T_table1; X.T_table2; X.T_table3 ]

(* E13: session churn through the soft-state lifecycle.  A short run must
   already show the shape: sessions turn over with zero leaked slots and a
   clean audit in every scenario, and the lossy-teardown scenario recovers
   stranded reservations by refresh timeout (expiries observed). *)
let test_churn_shape () =
  let r1 = X.run_churn ~duration:25. ~seed:42L ~j:1 ~check:true () in
  let r2 = X.run_churn ~duration:25. ~seed:42L ~j:2 ~check:true () in
  Alcotest.(check bool) "rows identical at every -j" true (r1 = r2);
  Alcotest.(check int) "four scenarios" 4 (List.length r1);
  List.iter
    (fun r ->
      let name = X.churn_name r.X.ch_scenario in
      Alcotest.(check bool) (name ^ ": sessions established") true
        (r.X.ch_established > 100);
      Alcotest.(check bool) (name ^ ": sessions departed") true
        (r.X.ch_departed > 0);
      (* Slot releases only start one quarantine horizon (~15 s) in, so a
         short run sees the onset of recycling, not the steady state. *)
      Alcotest.(check bool) (name ^ ": slots recycled") true
        (r.X.ch_recycled > 0);
      Alcotest.(check int) (name ^ ": no leaked slots") 0 r.X.ch_leaked;
      Alcotest.(check bool) (name ^ ": signaling flowed") true
        (r.X.ch_signaling_pps > 0.);
      match r.X.ch_check with
      | None -> Alcotest.fail (name ^ ": audit summary missing under ~check")
      | Some s ->
          Alcotest.(check int)
            (name ^ ": audit clean")
            0 s.Ispn_check.Audit.violations)
    r1;
  let find sc = List.find (fun r -> r.X.ch_scenario = sc) r1 in
  Alcotest.(check int) "clean scenario never expires state" 0
    (find X.C_clean).X.ch_expired;
  Alcotest.(check bool) "lost teardowns reclaimed by refresh timeout" true
    ((find X.C_lossy_teardown).X.ch_expired > 0)

let test_scale_shape () =
  let run shards =
    X.run_scale ~duration:4. ~seed:42L ~shards ~flows:200 ~check:true ()
  in
  let r1 = run 1 in
  let r2 = run 2 in
  let r4 = run 4 in
  (* The whole result table is shard-count-independent; only the shard
     diagnostics (and the audit's event partitioning) may differ. *)
  let table (r : X.scale_report) =
    (r.X.sc_rows, r.X.sc_delivered_total, r.X.sc_sent, r.X.sc_dropped)
  in
  Alcotest.(check bool) "table identical at 1 and 2 shards" true
    (table r1 = table r2);
  Alcotest.(check bool) "table identical at 1 and 4 shards" true
    (table r1 = table r4);
  Alcotest.(check int) "one row per span" 4 (List.length r1.X.sc_rows);
  Alcotest.(check int) "all flows bucketed" r1.X.sc_flow_count
    (List.fold_left (fun acc (row : X.scale_row) -> acc + row.X.sc_flows) 0
       r1.X.sc_rows);
  Alcotest.(check bool) "packets delivered" true
    (r1.X.sc_delivered_total > 1000);
  Alcotest.(check int) "unsharded run has no cut links" 0 r1.X.sc_cut_links;
  Alcotest.(check bool) "sharded run exchanges packets" true
    (r4.X.sc_cut_links > 0 && r4.X.sc_exchanged > 0);
  (* Mean delay must grow with the regions crossed (propagation adds up). *)
  let means = List.map (fun (r : X.scale_row) -> r.X.sc_mean_delay) r1.X.sc_rows in
  Alcotest.(check bool) "delay grows with span" true
    (List.sort compare means = means);
  List.iter
    (fun (r : X.scale_report) ->
      match r.X.sc_check with
      | None -> Alcotest.fail "audit summary missing under ~check"
      | Some s ->
          Alcotest.(check int) "audit clean" 0 s.Ispn_check.Audit.violations)
    [ r1; r2; r4 ]

let test_scale_obs_shard_invariant () =
  let run shards =
    X.run_scale ~duration:4. ~seed:42L ~shards ~flows:200 ~metrics:true
      ~series:true ()
  in
  let r1 = run 1 in
  let r4 = run 4 in
  (* Per-link snapshots and timelines merge in canonical link order, so
     the exports — like stdout — are byte-identical at every width.
     [compare] rather than [=]: idle links report NaN percentiles. *)
  (match (r1.X.sc_metrics, r4.X.sc_metrics) with
  | Some a, Some b ->
      Alcotest.(check bool) "snapshot non-empty" true (a <> []);
      Alcotest.(check bool) "metrics shard-invariant" true (compare a b = 0)
  | _ -> Alcotest.fail "metrics snapshot missing under ~metrics");
  match (r1.X.sc_series, r4.X.sc_series) with
  | Some a, Some b ->
      Alcotest.(check bool) "series sampled" true
        (Array.length a.Ispn_obs.Series.ex_times > 1);
      Alcotest.(check bool) "series has columns" true
        (a.Ispn_obs.Series.ex_columns <> []);
      Alcotest.(check bool) "series shard-invariant" true (compare a b = 0)
  | _ -> Alcotest.fail "series export missing under ~series"

let suite =
  [
    Alcotest.test_case "churn shape" `Slow test_churn_shape;
    Alcotest.test_case "scale observability shard-invariant" `Slow
      test_scale_obs_shard_invariant;
    Alcotest.test_case "scale shards-invariant and shaped" `Slow
      test_scale_shape;
    Alcotest.test_case "trace rows shape" `Slow test_trace_rows_shape;
    Alcotest.test_case "failover deterministic and shaped" `Slow
      test_failover_deterministic_and_shaped;
    Alcotest.test_case "signaling latency grows with load" `Slow
      test_signaling_latency_grows_with_load;
    Alcotest.test_case "load sweep crossover" `Slow
      test_load_sweep_crossover;
    Alcotest.test_case "seeds ordering" `Slow test_seeds_ordering;
    Alcotest.test_case "cascade monotone" `Slow test_cascade_monotone;
    Alcotest.test_case "isolation ordering" `Slow test_isolation_ordering;
    Alcotest.test_case "playback ordering" `Slow test_playback_ordering;
    Alcotest.test_case "admission ordering" `Slow test_admission_ordering;
    Alcotest.test_case "discard tradeoff" `Slow test_discard_tradeoff;
    Alcotest.test_case "bakeoff: EDF equals FIFO" `Slow
      test_bakeoff_edf_equals_fifo;
    Alcotest.test_case "bakeoff: non-work-conserving means" `Slow
      test_bakeoff_nwc_higher_means;
    Alcotest.test_case "bakeoff: analytic bounds audit clean" `Slow
      test_bakeoff_bounds_check_clean;
  ]
