(* The experiment registry shared by bench/main.exe and bin/ispn_sim.exe:
   an entry's output is every byte either front-end prints for it, minus
   the bench's header and banner. *)

module E = Experiment
module X = Extensions
module Table = Ispn_util.Table

type flag =
  | Jobs | Shards | Check | Metrics | Series | Avg_rate | Verbose | Fast
  | Debug | Duration | Seed

type ctx = {
  duration : float;
  seed : int64;
  avg_rate : float;
  jobs : int;
  shards : int;
  trace_cap : int option;
  verbose : bool;
  check : bool;
  metrics : bool;
  series : bool;
}

let ctx ?(duration = Ispn_util.Units.sim_duration_s) ?(seed = 42L)
    ?(avg_rate = Scenario.default_avg_rate_pps)
    ?(jobs = Ispn_exec.Pool.default_jobs ()) ?(shards = 1) ?trace_cap
    ?(verbose = false) ?(check = false) ?(metrics = false) ?(series = false)
    () =
  let finite flag v =
    if Float.is_finite v && v > 0. then None
    else
      Some
        (Printf.sprintf "%s expects a positive, finite number (got %g)" flag v)
  in
  let positive flag n =
    if n > 0 then None
    else Some (Printf.sprintf "%s expects a positive integer (got %d)" flag n)
  in
  let errors =
    [
      finite "--duration" duration;
      finite "--avg-rate" avg_rate;
      positive "-j" jobs;
      positive "--shards" shards;
      Option.bind trace_cap (positive "--trace-cap");
    ]
  in
  match List.find_map Fun.id errors with
  | Some msg -> Error msg
  | None ->
      Ok
        { duration; seed; avg_rate; jobs; shards; trace_cap; verbose; check;
          metrics; series }

type exports = (string * Instr.export) list

type output = { text : string; exports : exports }

type t = {
  name : string;
  doc : string;
  flags : flag list;
  bench_cap : float option;
  epilogue : string;
  run : ctx -> output;
}

let capped s c =
  match s.bench_cap with
  | None -> c
  | Some cap -> { c with duration = Stdlib.min c.duration cap }

let no_exports = []
let concat = List.concat

let pick f (ex : exports) =
  List.filter_map (fun (label, x) -> Option.map (fun v -> (label, v)) (f x)) ex

let snapshots = pick (fun x -> x.Instr.snapshot)
let audits = pick (fun x -> x.Instr.audit)
let timelines = pick (fun x -> x.Instr.timeline)

(* One pool job's instruments, handed to [run] and exported under
   [label]. *)
let instrument c ~label run =
  let i = Instr.create ~check:c.check ~metrics:c.metrics ~series:c.series in
  let v = run i in
  (v, [ (label, Instr.finish i) ])

(* Runners that instrument themselves hand back their exports per row. *)
let per_row ?(check = fun _ -> None) ?(series = fun _ -> None) name =
  List.map (fun r ->
      (name r, { Instr.audit = check r; snapshot = None; timeline = series r }))

let report ?(exports = no_exports) f =
  let b = Buffer.create 1024 in
  f b;
  { text = Buffer.contents b; exports }

let line b s =
  Buffer.add_string b s;
  Buffer.add_char b '\n'

(* -v: the per-flow table and link summary after the headline table. *)
let link_info b (info : E.run_info) =
  Printf.bprintf b "\nLinks at ";
  Array.iteri
    (fun i u ->
      Printf.bprintf b "%sL%d %.1f%%" (if i = 0 then "" else ", ") (i + 1)
        (100. *. u))
    info.E.utilization;
  Printf.bprintf b "; %d offered, %d source-dropped (%.2f%%), %d buffer drops\n"
    info.E.offered info.E.source_dropped
    (100.
    *. float_of_int info.E.source_dropped
    /. float_of_int (max 1 info.E.offered))
    info.E.net_dropped

let per_flow b (sched, (results, info)) =
  Printf.bprintf b "\n%s per-flow:\n%s\n" (E.sched_name sched)
    (Report.flow_results results);
  link_info b info

let observed = [ Duration; Seed; Avg_rate; Verbose; Metrics; Series; Check ]

let entry ?(flags = [ Duration; Seed ]) ?bench_cap ~doc ~epilogue name run =
  { name; doc; flags; bench_cap; epilogue; run }

(* Tables 1 and 2: one instrumented run of [scenario] per scheduler,
   fanned over the pool, rendered as one table plus the -v per-flow
   detail. *)
let per_sched name scheds (scenario : ?avg_rate_pps:float -> unit -> Scenario.t)
    ~doc ~epilogue render =
  entry name ~flags:(Jobs :: observed) ~doc ~epilogue (fun c ->
      let runs =
        Ispn_exec.Pool.map ~j:c.jobs
          (fun sched ->
            instrument c ~label:(name ^ "." ^ E.sched_name sched)
              (fun instr ->
                E.run ~instr
                  ~qdisc_of:(E.qdisc ?metrics:(Instr.metrics instr) sched)
                  ~duration:c.duration ~seed:c.seed
                  (scenario ~avg_rate_pps:c.avg_rate ())))
          scheds
      in
      report
        ~exports:(concat (List.map snd runs))
        (fun b ->
          let runs = List.map2 (fun s (r, _) -> (s, r)) scheds runs in
          line b (render runs);
          if c.verbose then List.iter (per_flow b) runs))

let topology =
  entry "topology" ~flags:[] ~doc:"Print the Figure-1 topology and flow layout."
    ~epilogue:"" (fun _ ->
      { text = Report.figure1 (); exports = no_exports })

let table1 =
  per_sched "table1" [ E.Wfq; E.Fifo ] Scenario.single_link
    ~doc:"Reproduce Table 1: WFQ vs FIFO on a single shared link."
    ~epilogue:
      "\nPaper (Table 1):  WFQ mean 3.16, 99.9%ile 53.86;  FIFO mean 3.17, \
       99.9%ile 34.72\nShape to check: equal means; FIFO tail well below WFQ \
       tail at 83.5% load."
    (fun runs ->
      Report.table1
        (List.map (fun (s, (r, i)) -> (s, r, i)) runs)
        ~sample_flow:0)

let table2 =
  per_sched "table2" [ E.Wfq; E.Fifo; E.Fifo_plus ] Scenario.figure1
    ~doc:
      "Reproduce Table 2: WFQ vs FIFO vs FIFO+ on the Figure-1 multihop chain."
    ~epilogue:
      "\nPaper (Table 2), 99.9%ile by path length 1/2/3/4:\n\
      \  WFQ   45.31  60.31  65.86  80.59\n\
      \  FIFO  30.49  41.22  52.36  58.13\n\
      \  FIFO+ 33.59  38.15  43.30  45.25\n\
       Shape to check: tails grow with hops everywhere; FIFO+ grows slowest,\n\
       wins clearly at 3-4 hops, and gives a little back on 1-hop paths."
    (fun runs ->
      Report.table2
        (List.map (fun (s, (r, _)) -> (s, r)) runs)
        ~sample_flows:[ 18; 8; 2; 0 ])

let table3 =
  entry "table3" ~flags:observed
    ~doc:"Reproduce Table 3: the unified CSZ scheduling algorithm."
    ~epilogue:
      "\nPaper (Table 3): Peak/4 max 15.99 vs bound 23.53; Peak/2 8.79 vs \
       11.76;\n\
      \  Average/3 296.23 vs 611.76; Average/1 247.24 vs 588.24;\n\
      \  High/4 99.9%ile 8.20; High/2 5.83; Low/3 104.83; Low/1 79.57;\n\
      \  utilization >99% (83.5% real-time), datagram drop ~0.1%.\n\
       Shape to check: every guaranteed max under its P-G bound; Peak << \
       Average;\n\
       High < Low; link near saturation with real-time at ~83.5%."
    (fun c ->
      let res, exports =
        instrument c ~label:"table3" (fun instr ->
            E.run_table3 ~avg_rate_pps:c.avg_rate ~instr ~duration:c.duration
              ~seed:c.seed ())
      in
      report ~exports (fun b ->
          line b (Report.table3 res);
          if c.verbose then begin
            Printf.bprintf b "\nAll real-time flows:\n%s\n"
              (Report.flow_results res.E.all_flows);
            link_info b res.E.info
          end))

let bakeoff =
  entry "bakeoff" ~flags:[ Duration; Seed; Jobs; Check ]
    ~doc:
      "E1: related-work scheduler bake-off (VirtualClock, EDF, DRR, WRR, \
       MC-FIFO, CBS, ATS, RR-groups, ...) on the Table-2 workload, with \
       analytic per-hop delay-bound columns for the shapers; --check audits \
       every delivered packet against its registered bound."
    ~epilogue:
      "\nShape to check: the isolating schedulers (WFQ, VirtualClock, DRR,\n\
       WRR, RR-groups) all pay a tail penalty against the sharing\n\
       schedulers; EDF with equal budgets tracks FIFO exactly (Section 5's\n\
       degeneracy), as does MC-FIFO by construction; FIFO+ has the flattest\n\
       tail growth with path length; and the non-work-conserving schemes\n\
       (CBS, ATS, Stop-and-Go, HRR, Jitter-EDD) show Section 11's trade —\n\
       higher mean delay bought for a narrower delay spread.  The bound@h\n\
       columns are the shapers' deterministic per-packet delay bounds\n\
       (CBS/ATS: Mohammadpour et al.; WRR: Constantin et al.; MC-FIFO:\n\
       Jiang-Misra), in packet times; --check audits every delivered\n\
       packet against them, and their hundred-fold slack over the measured\n\
       tails is the paper's isolation argument made quantitative: without\n\
       per-flow isolation the provable bound balloons with the shared\n\
       bursts even while typical delays stay small."
    (fun c ->
      let runs =
        X.run_bakeoff ~duration:c.duration ~seed:c.seed ~j:c.jobs
          ~check:c.check ()
      in
      let f2 = Table.fmt_float ~decimals:2 in
      let f0 = Table.fmt_float ~decimals:0 in
      let pt =
        Ispn_util.Units.packet_times
          ~link_rate_bps:Ispn_util.Units.link_rate_bps
          ~packet_bits:Ispn_util.Units.packet_bits
      in
      let rows =
        List.map
          (fun (row : X.bakeoff_row) ->
            X.bakeoff_name row.X.bk_sched
            :: List.concat_map
                 (fun flow ->
                   let r =
                     List.find (fun (fr : E.flow_result) -> fr.E.flow = flow)
                       row.X.bk_results
                   in
                   (* Zero delivered packets means no percentiles: print
                      "-", never a 0.00 (or NaN) that reads as a
                      measurement. *)
                   let stat v = if r.E.received = 0 then "-" else f2 v in
                   let bound =
                     match row.X.bk_bounds with
                     | None -> "-"
                     | Some bs -> f0 (pt (List.assoc flow bs))
                   in
                   [ stat r.E.mean; stat r.E.p999; bound ])
                 [ 18; 8; 2; 0 ])
          runs
      in
      let header =
        "scheduler"
        :: List.concat_map
             (fun h -> [ "mean@" ^ h; "p999@" ^ h; "bound@" ^ h ])
             [ "1"; "2"; "3"; "4" ]
      in
      let label (r : X.bakeoff_row) =
        "bakeoff." ^ X.bakeoff_name r.X.bk_sched
      in
      let exports = per_row label ~check:(fun r -> r.X.bk_check) runs in
      { text = Table.render ~header ~rows () ^ "\n"; exports })

(* One report line (or block) per runner row. *)
let per_line ?exports rows print =
  report ?exports (fun b -> List.iter (print b) rows)

let admission =
  entry "admission" ~flags:[ Duration; Seed; Debug; Jobs ]
    ~doc:"E2: admission-control policies under dynamic flow arrivals."
    ~epilogue:
      "\nShape to check (the paper's Section 9/12 conjecture): the measured\n\
       policy admits more flows and runs the link hotter than worst-case\n\
       declared-rate admission, with both keeping violations at zero; no\n\
       admission control saturates the link and shreds the delay targets."
    (fun c ->
      per_line (X.run_admission ~duration:c.duration ~seed:c.seed ~j:c.jobs ())
        (fun b (r : X.admission_result) ->
          Printf.bprintf b
            "%-24s requests %3d, accepted %3d, utilization %5.1f%%, \
             violations %6.2f%%, drops %6.2f%%\n"
            (X.policy_name r.X.policy) r.X.requests r.X.accepted
            (100. *. r.X.mean_utilization)
            (100. *. r.X.violation_rate)
            (100. *. r.X.net_drop_rate)))

let playback =
  entry "playback"
    ~doc:"E3: adaptive vs rigid play-back clients on the 4-hop flow."
    ~epilogue:
      "\nShape to check (Section 2.3/12): both adaptive clients' play-back\n\
       points sit far below the rigid client's advertised-bound point at a\n\
       small loss rate; the VAT-style spike-following filter converts most of\n\
       the windowed tracker's residual loss into a similar point."
    (fun c ->
      per_line (X.run_playback ~duration:c.duration ~seed:c.seed ())
        (fun b (r : X.playback_result) ->
          Printf.bprintf b
            "%-10s mean play-back point %6.2f packet times, application loss \
             %.3f%%\n"
            r.X.client r.X.mean_point
            (100. *. r.X.app_loss_rate)))

let cascade =
  entry "cascade" ~doc:"E6: jitter shifting down the priority-class ladder."
    ~epilogue:
      "\nShape to check (Section 7): each class absorbs the jitter of the\n\
       classes above it, so tails grow monotonically down the priority\n\
       ladder, with the datagram class carrying the accumulated burstiness\n\
       of everyone."
    (fun c ->
      per_line (X.run_cascade ~duration:c.duration ~seed:c.seed ())
        (fun b (r : X.cascade_row) ->
          Printf.bprintf b "%-10s per-hop mean %6.2f, 99.9%%ile %8.2f\n"
            r.X.cascade_class r.X.c_mean r.X.c_p999))

let isolation =
  entry "isolation"
    ~doc:"E4: a misbehaving source under FIFO, WFQ and edge policing."
    ~epilogue:
      "\nShape to check (Section 5): under plain FIFO the cheater drags \
       everyone\ndown; WFQ quarantines the damage to the cheater; edge \
       policing restores\nFIFO's low tails — isolation and sharing are \
       separable concerns."
    (fun c ->
      per_line (X.run_isolation ~duration:c.duration ~seed:c.seed ())
        (fun b (r : X.isolation_row) ->
          Printf.bprintf b
            "%-28s honest: mean %7.2f p999 %8.2f | cheater: mean %8.2f p999 \
             %8.2f\n"
            r.X.iso_sched r.X.honest_mean r.X.honest_p999 r.X.cheat_mean
            r.X.cheat_p999))

let discard =
  entry "discard"
    ~doc:"E5: Section 10 late-packet discard via the FIFO+ offset."
    ~epilogue:
      "\nShape to check (Section 10): discarding packets whose accumulated \
       offset\nmarks them as hopelessly late trims the tail for everyone else \
       at a tiny\nloss cost."
    (fun c ->
      per_line (X.run_discard ~duration:c.duration ~seed:c.seed ())
        (fun b (r : X.discard_result) ->
          Printf.bprintf b
            "threshold %-8s 4-hop 99.9%%ile %7.2f, discarded %.3f%% of \
             packets\n"
            (match r.X.threshold with
            | None -> "off"
            | Some t -> Printf.sprintf "%.0f ms" (1000. *. t))
            r.X.p999_4hop
            (100. *. r.X.discarded_fraction)))

let sweep =
  entry "sweep" ~flags:[ Duration; Seed; Jobs ]
    ~doc:"E8: sharing's tail advantage as a function of load."
    ~epilogue:
      "\nShape to check (Section 12): sharing and isolation coincide when\n\
       bandwidth is plentiful; the sharing advantage (WFQ/FIFO tail ratio)\n\
       appears around 80% load and widens as the link saturates — \"careful\n\
       attention to sharing arises only when bandwidth is limited\"."
    (fun c ->
      per_line (X.run_load_sweep ~duration:c.duration ~seed:c.seed ~j:c.jobs ())
        (fun b (r : X.sweep_row) ->
          Printf.bprintf b
            "utilization %5.1f%%  FIFO 99.9%%ile %6.2f   WFQ 99.9%%ile %6.2f   \
             WFQ/FIFO %.2f\n"
            (100. *. r.X.achieved_utilization)
            r.X.fifo_p999 r.X.wfq_p999
            (r.X.wfq_p999 /. r.X.fifo_p999)))

let signaling =
  entry "signaling" ~bench_cap:120.
    ~doc:"E9: in-band hop-by-hop establishment latency vs load."
    ~epilogue:
      "\nShape to check: establishment takes real network time (about 6 ms\n\
       across four hops when idle: four 0.5 ms control transmissions plus\n\
       the reverse-path confirmation) and stretches by an order of magnitude\n\
       when the datagram class the control packets share is loaded — the\n\
       paper's fourth architectural component, priced."
    (fun c ->
      per_line (X.run_signaling ~duration:c.duration ~seed:c.seed ())
        (fun b (r : X.signaling_row) ->
          Printf.bprintf b
            "background load %3.0f%%: %3d setups, mean %6.2f ms, max %7.2f ms\n"
            (100. *. r.X.sig_load) r.X.sig_setups r.X.sig_mean_ms
            r.X.sig_max_ms))

let faults =
  entry "faults" ~bench_cap:120. ~flags:[ Duration; Seed; Jobs; Series ]
    ~doc:
      "E11: inject link outages, header corruption and agent crashes; watch \
       setup retries, re-establishment and the guaranteed -> predicted -> \
       datagram degradation ladder."
    ~epilogue:
      "\nShape to check: the baseline row is clean (no retries, no\n\
       degradation); link outages and header corruption lose packets and\n\
       force setup retransmissions but every completed setup still rolls\n\
       back or establishes cleanly; the agent crash re-establishes every\n\
       flow through the dead switch within milliseconds, and the flows the\n\
       usurper squeezes out slide down the service ladder (guaranteed ->\n\
       predicted -> datagram) instead of dying — Section 2's tolerant,\n\
       adaptive clients surviving a changed network."
    (fun c ->
      let rows =
        X.run_failover ~duration:c.duration ~seed:c.seed ~j:c.jobs
          ~series:c.series ()
      in
      let label (r : X.failover_row) =
        "faults." ^ X.failover_name r.X.fo_schedule
      in
      let exports = per_row label ~series:(fun r -> r.X.fo_series) rows in
      per_line ~exports rows
        (fun b (r : X.failover_row) ->
          Printf.bprintf b
            "%-12s violations %5.2f%%  lost %6d  retries %3d (abandoned %d)  \
             reestablished %d in %4.1f ms  degraded %d\n"
            (X.failover_name r.X.fo_schedule)
            (100. *. r.X.fo_violation_rate)
            r.X.fo_lost r.X.fo_retries r.X.fo_abandoned r.X.fo_reestablished
            r.X.fo_reestablish_ms r.X.fo_degraded;
          List.iter
            (fun (f : X.failover_flow) ->
              Printf.bprintf b "    flow %d: requested %s, ended %s\n"
                f.X.ff_flow f.X.ff_requested f.X.ff_final)
            r.X.fo_flows))

let churn =
  entry "churn" ~flags:[ Duration; Seed; Jobs; Check; Series ]
    ~doc:
      "E13: open-loop session churn through the soft-state signaling layer — \
       RSVP-style refresh/timeout recovering lost teardowns, agent crashes \
       and link outages, with leak-free flow-id recycling."
    ~epilogue:
      "\nShape to check: leaked is 0 in every scenario — that is the soft-state\n\
       contract.  The clean run expires nothing (all teardowns arrive); the\n\
       lossy run strands reservations mid-path and the expired column shows\n\
       the refresh timeout reclaiming every one; the crashes and the flap\n\
       push blocking and retries up, never the leak count.  Recycled >> hwm:\n\
       the dense flow-id space stays bounded under a million sessions."
    (fun c ->
      let rows =
        X.run_churn ~duration:c.duration ~seed:c.seed ~j:c.jobs ~check:c.check
          ~series:c.series ()
      in
      let label (r : X.churn_row) = "churn." ^ X.churn_name r.X.ch_scenario in
      let exports =
        per_row label
          ~check:(fun r -> r.X.ch_check)
          ~series:(fun r -> r.X.ch_series)
          rows
      in
      report ~exports (fun b ->
          List.iter
            (fun (r : X.churn_row) ->
              Printf.bprintf b
                "%-15s sessions %6d  blocking %5.2f%%  departed %6d (active \
                 %4d)  signaling %6.1f pkt/s (refresh %4.1f%%)  retries %4d  \
                 expired %4d  recycled %6d (hwm %4d)  leaked %d\n"
                (X.churn_name r.X.ch_scenario)
                r.X.ch_offered
                (100. *. r.X.ch_blocking)
                r.X.ch_departed r.X.ch_active_end r.X.ch_signaling_pps
                (100. *. r.X.ch_refresh_share)
                r.X.ch_retries r.X.ch_expired r.X.ch_recycled r.X.ch_slot_hwm
                r.X.ch_leaked)
            rows;
          Printf.bprintf b "cumulative sessions across scenarios: %d\n"
            (List.fold_left
               (fun acc (r : X.churn_row) -> acc + r.X.ch_offered)
               0 rows)))

let scale =
  entry "scale" ~flags:[ Duration; Seed; Shards; Fast; Check; Metrics; Series ]
    ~doc:
      "E14: one large parking-lot simulation (20 switches, thousands of \
       on/off flows) sharded across OCaml 5 domains with conservative \
       lock-step windows — same table, metrics and series at every --shards \
       width."
    ~epilogue:
      "\nShape to check: mean delay grows with the regions crossed —\n\
       propagation dominates at ~10 ms per backbone hop — while the\n\
       queueing share stays small at this load and drops are rare.  The\n\
       table is byte-identical for every --shards width; only the stderr\n\
       diagnostics and wall time change."
    (fun c ->
      let r =
        X.run_scale ~duration:c.duration ~seed:c.seed ~shards:c.shards
          ~check:c.check ~metrics:c.metrics ~series:c.series ()
      in
      (* Everything that varies with the shard count is diagnostic, not
         result, and goes to stderr with the host timing. *)
      Printf.eprintf
        "[scale: %d shard(s), %d cut link(s), lookahead %.2f ms, %d windows, \
         %d packets exchanged, %d events fired]\n%!"
        r.X.sc_shards r.X.sc_cut_links
        (1e3 *. r.X.sc_lookahead)
        r.X.sc_windows r.X.sc_exchanged r.X.sc_fired;
      let exports =
        [
          ( "scale",
            { Instr.audit = r.X.sc_check; snapshot = r.X.sc_metrics;
              timeline = r.X.sc_series } );
        ]
      in
      report ~exports (fun b ->
          Printf.bprintf b
            "%d switches, %d links, %d on/off flows over %.0f s (delays in \
             packet times)\n"
            r.X.sc_switches r.X.sc_links r.X.sc_flow_count c.duration;
          List.iter
            (fun (row : X.scale_row) ->
              Printf.bprintf b
                "regions crossed %d  flows %5d  delivered %9d  mean %8.1f  \
                 max %8.1f  queueing %6.2f\n"
                row.X.sc_span row.X.sc_flows row.X.sc_delivered
                row.X.sc_mean_delay row.X.sc_max_delay row.X.sc_mean_qdelay)
            r.X.sc_rows;
          Printf.bprintf b
            "total: delivered %d, sent %d link transmissions, dropped %d\n"
            r.X.sc_delivered_total r.X.sc_sent r.X.sc_dropped))

let all =
  [
    topology; table1; table2; table3; bakeoff; admission; playback; cascade;
    isolation; discard; sweep; signaling; faults; churn; scale;
  ]

let render s o =
  let b = Buffer.create (String.length o.text + 1024) in
  Buffer.add_string b o.text;
  Buffer.add_string b (Report.obs_footer (snapshots o.exports));
  List.iter
    (fun (label, summary) ->
      List.iter (line b) (Ispn_check.Audit.footer_lines ~label summary))
    (audits o.exports);
  if s.epilogue <> "" then line b s.epilogue;
  Buffer.contents b

let violations ex =
  List.fold_left
    (fun acc (_, s) -> acc + s.Ispn_check.Audit.violations)
    0 (audits ex)

let finish ?metrics ?series ex =
  let write file render labeled =
    Option.iter
      (fun path ->
        render path labeled;
        Printf.eprintf "wrote %s\n%!" path)
      file
  in
  write metrics Ispn_obs.Metrics.write_file (snapshots ex);
  write series Ispn_obs.Series.write_file (timelines ex);
  let v = violations ex in
  if v > 0 then begin
    Printf.eprintf "--check found %d invariant violation(s)\n%!" v;
    exit 1
  end
