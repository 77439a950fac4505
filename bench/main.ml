(* Benchmark harness: regenerates every table and figure of Clark, Shenker &
   Zhang (SIGCOMM 1992) plus the extension experiments, and microbenchmarks
   the per-packet cost of each scheduler.

     dune exec bench/main.exe            # everything but micro
     dune exec bench/main.exe table2     # one section
     dune exec bench/main.exe -- --fast  # 60 s runs instead of 600 s
     dune exec bench/main.exe -- -j 4    # fan runs over 4 domains
     dune exec bench/main.exe -- micro --json  # alone: fresh-process timings

   Absolute numbers need not match the paper (different simulator details);
   the shapes are what the harness demonstrates, and the paper's reference
   values are printed alongside for comparison.

   The shared sections come from the Csz.Section registry and the flags from
   Ispn_front (bin/ispn_sim.exe prints the same bytes); seeds, trace and
   micro are bench-only.  Stdout is a function of (sections, duration, seed)
   only — timing goes to stderr, the fan-out is deterministic, and micro,
   whose rows are host timings, never runs beside another section — so
   `-j N` output is byte-identical to `-j 1` for every N. *)

module Section = Csz.Section
module X = Csz.Extensions

let bench_only ?cap name ~flags ~epilogue run =
  { Section.name; doc = name; flags; bench_cap = cap; epilogue; run }

(* ---- Seed robustness ------------------------------------------------------ *)

let seeds =
  bench_only "seeds" ~flags:[ Jobs; Duration ] ~cap:300.
    ~epilogue:
      "\nShape to check: the Table-2 ordering (FIFO+ < FIFO < WFQ at four\n\
       hops) is not an artifact of the headline seed — the seed-wise ranges\n\
       barely overlap."
    (fun c ->
      Section.per_line (X.run_seed_robustness ~duration:c.duration ~j:c.jobs ())
        (fun b (r : X.seeds_row) ->
          Printf.bprintf b
            "%-6s 4-hop 99.9%%ile over 5 seeds: mean %6.2f  (min %6.2f, max \
             %6.2f)\n"
            (Csz.Experiment.sched_name r.X.seeds_sched)
            r.X.p999_mean r.X.p999_min r.X.p999_max))

(* ---- E12: flight-recorder trace ------------------------------------------ *)

let trace =
  bench_only "trace" ~flags:[ Duration ] ~cap:120.
    ~epilogue:
      "\nShape to check: each packet's per-hop queueing sums to the\n\
       end-to-end delay its egress probe reported; under FIFO+ the worst\n\
       packets' delay is spread across the path rather than concentrated at\n\
       one hop, and under CSZ the predicted classes dominate the tail."
    (fun c ->
      Section.per_line [ X.T_table2; X.T_table3 ] (fun b experiment ->
          Printf.bprintf b "%s\n"
            (Csz.Report.trace
               (X.run_trace ~experiment
                  ?recorder:
                    (Option.map
                       (fun capacity -> Ispn_obs.Recorder.create ~capacity ())
                       c.trace_cap)
                  ~duration:c.duration ~seed:c.seed ()))))

(* ---- Microbenchmarks ---------------------------------------------------- *)

let run_micro ~json _ =
  let b = Buffer.create 4096 in
  let open Bechamel in
  let open Toolkit in
  let pool = Ispn_sim.Qdisc.unbounded_pool in
  let engine = Ispn_sim.Engine.create in
  let qdiscs =
    [
      ("FIFO", fun () -> Ispn_sched.Fifo.create ~pool:(pool ()) ());
      ("FIFO+", fun () -> snd (Ispn_sched.Fifo_plus.create ~pool:(pool ()) ()));
      ( "WFQ",
        fun () ->
          Ispn_sched.Wfq.create_equal ~pool:(pool ()) ~link_rate_bps:1e6 () );
      ( "VirtualClock",
        fun () ->
          Ispn_sched.Virtual_clock.create ~pool:(pool ())
            ~rate_of:(fun _ -> 1e5)
            () );
      ( "DRR",
        fun () -> Ispn_sched.Drr.create ~pool:(pool ()) ~quantum_bits:1000 () );
      ("WRR", fun () -> Ispn_sched.Wrr.create ~pool:(pool ()) ());
      ( "EDF",
        fun () ->
          Ispn_sched.Edf.create ~pool:(pool ())
            ~deadline_of:(fun _ -> 0.01)
            () );
      ( "Jitter-EDD",
        (* Bench packets carry no upstream earliness (offset 0), so every
           packet is immediately eligible and the engine stays idle — the
           measured cost is the two-heap ranked path. *)
        fun () ->
          Ispn_sched.Jitter_edd.create ~engine:(engine ())
            ~budget_of:(fun _ -> 0.02)
            ~pool:(pool ()) () );
      ( "HRR",
        (* Slots far beyond the iteration count: the first frame's credit
           never runs out, so the round-robin scan path is what's timed. *)
        fun () ->
          Ispn_sched.Hrr.create ~engine:(engine ()) ~frame:0.02
            ~slots_of:(fun _ -> 1 lsl 30)
            ~pool:(pool ()) () );
      ( "CBS",
        (* An idle slope far above the drain rate keeps every class's
           credit non-negative, so the timed path is the touch-and-pick
           scan, never the waker. *)
        fun () ->
          Ispn_sched.Cbs.create ~engine:(engine ()) ~pool:(pool ())
            ~idle_slopes_bps:[| 1e12; 1e12 |]
            ~class_of:(fun f -> f mod 2)
            () );
      ( "ATS",
        (* A token rate and depth far above the offered load keep every
           head packet conformant: the measured cost is the per-flow
           regulator lookup plus the class scan. *)
        fun () ->
          Ispn_sched.Ats.create ~engine:(engine ()) ~pool:(pool ()) ~n_classes:2
            ~class_of:(fun f -> f mod 2)
            ~shaper_of:(fun _ -> (1e12, 1e9))
            () );
      ( "Stop-and-Go",
        (* One frame per bench tick: the 32-deep standing queue keeps the
           head a full frame old, so dequeues always find it eligible. *)
        fun () ->
          Ispn_sched.Stop_and_go.create ~engine:(engine ()) ~frame:1e-4
            ~pool:(pool ()) () );
      ( "CSZ",
        fun () ->
          let st, q = Csz.Csz_sched.create ~pool:(pool ()) () in
          for f = 0 to 4 do
            Csz.Csz_sched.add_guaranteed st ~flow:(100 + f)
              ~clock_rate_bps:50_000.
          done;
          for f = 0 to 9 do
            Csz.Csz_sched.set_predicted st ~flow:f ~cls:(f mod 2)
          done;
          q );
    ]
  in
  (* A light load: one packet per busy period, from a flow at id 4,000, so
     every dequeue ends a busy period on a link whose per-flow state spans
     4,096 ids.  The standing-queue rows never end one. *)
  let idle_qdiscs =
    [
      ( "WFQ-idle",
        fun () ->
          Ispn_sched.Wfq.create_equal ~pool:(pool ()) ~link_rate_bps:1e6 () );
      ( "CSZ-idle",
        fun () ->
          let st, q = Csz.Csz_sched.create ~pool:(pool ()) () in
          Csz.Csz_sched.add_guaranteed st ~flow:4000 ~clock_rate_bps:50_000.;
          q );
    ]
  in
  (* Per-packet cost: enqueue + dequeue through a 32-deep standing queue of
     16 flows, the regime a loaded switch sits in.  The paper's constraint:
     "since it must be executed for every packet it must not be so complex
     as to effect overall network performance". *)
  let test ?(standing = 32) ?(flow_of = fun i -> i mod 16) (name, make_qdisc) =
    let q = make_qdisc () in
    let clock = ref 0. in
    let seq = ref 0 in
    for i = 0 to standing - 1 do
      ignore
        (q.Ispn_sim.Qdisc.enqueue ~now:0.
           (Ispn_sim.Packet.make ~flow:(flow_of i) ~seq:i ~created:0. ()))
    done;
    Test.make ~name
      (Staged.stage (fun () ->
           clock := !clock +. 1e-4;
           incr seq;
           ignore
             (q.Ispn_sim.Qdisc.enqueue ~now:!clock
                (Ispn_sim.Packet.make ~flow:(flow_of !seq) ~seq:!seq
                   ~created:!clock ()));
           (* Recycle the served packet as a sink would; without the free
              the arena grows by one slot per iteration and the bench
              times arena growth instead of the scheduler. *)
           match q.Ispn_sim.Qdisc.dequeue ~now:!clock with
           | Some p -> Ispn_sim.Packet.free p
           | None -> ()))
  in
  let tests =
    Test.make_grouped ~name:"sched"
      (List.map test qdiscs
      @ List.map (test ~standing:0 ~flow_of:(fun _ -> 4000)) idle_qdiscs)
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
    |> List.filter_map (fun (name, v) ->
           match Analyze.OLS.estimates v with
           | Some [ ns ] ->
               Printf.bprintf b "%-22s %8.1f ns per enqueue+dequeue\n" name ns;
               Some (name, ns)
           | Some _ | None ->
               Printf.bprintf b "%-22s (no estimate)\n" name;
               None)
  in
  (* Engine event-loop cost, via the Engine.stats counters, in three
     regimes.  [engine/drain] is a two-deep self-rescheduling chain whose
     events also schedule-then-cancel a decoy, pricing the lazy-deletion
     skip path with almost no standing queue — a comparison heap's best
     case.  [engine/dense] interleaves 256 chains at mixed 1–64 us
     periods, a timing wheel's best case, and is the one
     [info.engine_events_per_s] reports. *)
  let run_engine name setup =
    let e = Ispn_sim.Engine.create () in
    let until = setup e in
    let t0 = Unix.gettimeofday () in
    Ispn_sim.Engine.run e ~until;
    let dt = Unix.gettimeofday () -. t0 in
    let st = Ispn_sim.Engine.stats e in
    let total =
      st.Ispn_sim.Engine.events_fired + st.Ispn_sim.Engine.cancels_skipped
    in
    let ns = 1e9 *. dt /. float_of_int total in
    Printf.bprintf b "%-22s %8.1f ns per event (%d fired, %d cancels skipped)\n"
      name ns st.Ispn_sim.Engine.events_fired
      st.Ispn_sim.Engine.cancels_skipped;
    ((name, ns), (1e9 /. ns, Ispn_sim.Engine.heap_depth_hwm e))
  in
  let drain_entry =
    run_engine "engine/drain" (fun e ->
        let n = 200_000 in
        let count = ref 0 in
        let rec act () =
          incr count;
          if !count < n then begin
            ignore (Ispn_sim.Engine.schedule_after e ~delay:1e-6 act);
            let h =
              Ispn_sim.Engine.schedule_after e ~delay:2e-6 (fun () -> ())
            in
            Ispn_sim.Engine.cancel e h
          end
        in
        ignore (Ispn_sim.Engine.schedule_after e ~delay:1e-6 act);
        1.0)
  in
  let dense_entry =
    run_engine "engine/dense" (fun e ->
        let n = 1_600_000 in
        let chains = 256 in
        let count = ref 0 in
        let mk i =
          let delay = float_of_int (1 + ((i * 7) land 63)) *. 1e-6 in
          let rec act () =
            incr count;
            if !count < n then
              ignore (Ispn_sim.Engine.schedule_after e ~delay act)
          in
          act
        in
        for i = 0 to chains - 1 do
          ignore
            (Ispn_sim.Engine.schedule_after e
               ~delay:(float_of_int i *. 1e-6)
               (mk i))
        done;
        10.0)
  in
  (* [engine/mixed] replays the pending-set shape the perfbench workloads
     carry: events scheduled from ~0.1 ms to 15 s ahead over a standing
     population in the thousands.  About 2,000 periodic timers at
     50 ms–1 s, 64 chains at 0.1–10 ms, and on 15% of chain events a
     re-armed timeout at 20 ms–15 s whose previous arming is cancelled
     (a retransmission timer's pattern). *)
  let mixed_entry =
    run_engine "engine/mixed" (fun e ->
        let module E = Ispn_sim.Engine in
        let g = Ispn_util.Prng.create ~seed:7L in
        let table lo hi =
          Array.init 4096 (fun _ -> lo +. ((hi -. lo) *. Ispn_util.Prng.float g))
        in
        let timer_d = table 0.05 1.0
        and chain_d = table 1e-4 1e-2
        and timeout_d = table 0.02 15.0 in
        let k = ref 0 in
        let draw () =
          incr k;
          !k land 4095
        in
        let rec timer () =
          ignore (E.schedule_after e ~delay:timer_d.(draw ()) timer)
        in
        for _ = 1 to 2000 do
          ignore (E.schedule_after e ~delay:timer_d.(draw ()) timer)
        done;
        let nop () = () in
        let chain_events = ref 0 in
        for _ = 1 to 64 do
          let armed = ref (E.schedule_after e ~delay:timeout_d.(draw ()) nop) in
          let rec chain () =
            incr chain_events;
            if !chain_events mod 20 < 3 then begin
              E.cancel e !armed;
              armed := E.schedule_after e ~delay:timeout_d.(draw ()) nop
            end;
            ignore (E.schedule_after e ~delay:chain_d.(draw ()) chain)
          in
          ignore (E.schedule_after e ~delay:chain_d.(draw ()) chain)
        done;
        60.0)
  in
  (* [engine/rearm] is that timeout pattern at its densest, as TCP re-arms
     its retransmission timer on every ack: 64 chains at 0.1–10 ms whose
     every event cancels its chain's 1 s timeout and arms a new one.
     Without compaction ~200 dead entries per chain would sit in the
     heap. *)
  let rearm_entry =
    run_engine "engine/rearm" (fun e ->
        let module E = Ispn_sim.Engine in
        let g = Ispn_util.Prng.create ~seed:7L in
        let chain_d =
          Array.init 4096 (fun _ -> 1e-4 +. (0.0099 *. Ispn_util.Prng.float g))
        in
        let k = ref 0 in
        let draw () =
          incr k;
          chain_d.(!k land 4095)
        in
        let nop () = () in
        for _ = 1 to 64 do
          let armed = ref (E.schedule_after e ~delay:1.0 nop) in
          let rec chain () =
            E.cancel e !armed;
            armed := E.schedule_after e ~delay:1.0 nop;
            ignore (E.schedule_after e ~delay:(draw ()) chain)
          in
          ignore (E.schedule_after e ~delay:(draw ()) chain)
        done;
        20.0)
  in
  (* The sharded engine's per-event price: a 4-switch chain split over 2
     domains, CBR crossing the cut both ways, 1 ms lookahead windows.
     Includes the marshal/re-make exchange and the window barriers, so it
     prices exactly what [scale --shards N] pays over a plain engine. *)
  let sharded_entry =
    let mk_qdisc () =
      Ispn_sched.Fifo.create ~pool:(Ispn_sim.Qdisc.unbounded_pool ()) ()
    in
    let link src dst prop =
      {
        Ispn_sim.Shardnet.l_src = src;
        l_dst = dst;
        l_rate_bps = 1e7;
        l_prop_delay = prop;
        l_qdisc = mk_qdisc;
      }
    in
    let flow f src dst =
      {
        Ispn_sim.Shardnet.f_src = src;
        f_dst = dst;
        f_driver =
          (fun engine emit ->
            let s =
              Ispn_traffic.Cbr.create ~engine ~flow:f ~rate_pps:5000. ~emit ()
            in
            s.Ispn_traffic.Source.start ());
      }
    in
    let spec =
      {
        Ispn_sim.Shardnet.n_switches = 4;
        n_shards = 2;
        shard_of = [| 0; 0; 1; 1 |];
        links =
          [|
            link 0 1 1.0e-4; link 1 0 1.1e-4; link 1 2 1.0e-3;
            link 2 1 1.1e-3; link 2 3 1.2e-4; link 3 2 1.3e-4;
          |];
        flows = [| flow 0 0 3; flow 1 3 0 |];
      }
    in
    let t0 = Unix.gettimeofday () in
    let res = Ispn_sim.Shardnet.run ~until:2.0 spec in
    let dt = Unix.gettimeofday () -. t0 in
    let ns = 1e9 *. dt /. float_of_int res.Ispn_sim.Shardnet.r_fired in
    Printf.bprintf b
      "%-22s %8.1f ns per event (%d fired over %d shards, %d exchanged)\n"
      "engine/sharded" ns res.Ispn_sim.Shardnet.r_fired
      res.Ispn_sim.Shardnet.r_shards res.Ispn_sim.Shardnet.r_drained;
    ("engine/sharded", ns)
  in
  let drain_name_ns, _ = drain_entry in
  let dense_name_ns, (events_per_s, pending_hwm) = dense_entry in
  let mixed_name_ns, _ = mixed_entry in
  let rearm_name_ns, _ = rearm_entry in
  Printf.bprintf b "%-22s %8.0f events/s dense, pending hwm %d\n" "engine/info"
    events_per_s pending_hwm;
  (* The info.* entries are informational throughput/shape numbers; the CI
     perf gate (ci/check_bench.sh) skips them when looking for ns/packet
     regressions. *)
  (* Control-plane cost, engine time included: one full session lifecycle
     (datagram setup across one link, confirmation, teardown, id recycle)
     and one soft-state refresh pass over a two-hop path — the per-session
     and per-epoch signaling price the churn workload pays ~1M times. *)
  let run_control name what iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    let ns = 1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int iters in
    Printf.bprintf b "%-22s %8.1f ns per %s\n" name ns what;
    (name, ns)
  in
  let setup_entry =
    let e = Ispn_sim.Engine.create () in
    let fab = Csz.Fabric.chain ~engine:e ~n_switches:2 () in
    let sg = Csz.Signaling.deploy ~fabric:fab () in
    let spool = Ispn_util.Idpool.create () in
    let horizon = ref 0. in
    run_control "signaling/setup" "session open+close" 20_000 (fun () ->
        let flow = Ispn_util.Idpool.take spool in
        Csz.Signaling.setup sg ~flow ~ingress:0 ~egress:1
          Ispn_admission.Spec.Datagram ~sink:Ispn_sim.Packet.free
          ~on_result:(fun _ -> ());
        horizon := !horizon +. 0.01;
        Ispn_sim.Engine.run e ~until:!horizon;
        Csz.Signaling.teardown sg ~flow;
        Ispn_util.Idpool.release spool ~id:flow)
  in
  let refresh_entry =
    let e = Ispn_sim.Engine.create () in
    let fab = Csz.Fabric.chain ~engine:e ~n_switches:3 () in
    (* A huge interval turns stamping on but keeps the periodic pump and
       sweep out of the measured window. *)
    let sg = Csz.Signaling.deploy ~fabric:fab ~refresh_interval:1e9 () in
    Csz.Signaling.setup sg ~flow:0 ~ingress:0 ~egress:2
      Ispn_admission.Spec.Datagram ~sink:Ispn_sim.Packet.free
      ~on_result:(fun _ -> ());
    Ispn_sim.Engine.run e ~until:0.05;
    let horizon = ref 0.05 in
    run_control "signaling/refresh" "refresh pass" 20_000 (fun () ->
        Csz.Signaling.refresh_now sg ~flow:0;
        horizon := !horizon +. 0.01;
        Ispn_sim.Engine.run e ~until:!horizon)
  in
  (* One Section 9 admission decision and its release: a predicted request
     on a controller whose meter window (8 epochs) is full, so every
     estimate folds the whole window — the admission price each setup hop
     pays. *)
  let request_entry =
    let module C = Ispn_admission.Controller in
    let module M = Ispn_admission.Meter in
    let ctrl = C.create () in
    let meter = C.meter ctrl in
    for e = 1 to 8 do
      if e > 1 then C.epoch ctrl;
      M.note_util meter (0.2 +. (0.01 *. float_of_int e));
      M.note_delay meter ~cls:0 (0.0002 *. float_of_int e);
      M.note_delay meter ~cls:1 (0.002 *. float_of_int e)
    done;
    let request =
      Ispn_admission.Spec.Predicted
        {
          bucket =
            Ispn_admission.Spec.bucket ~rate_pps:20. ~depth_packets:5. ();
          target_delay = 0.064;
          target_loss = 0.01;
        }
    in
    (match C.request ctrl ~flow:1 ~hops:1 request with
    | C.Admitted _ -> C.release ctrl ~flow:1
    | C.Rejected r -> failwith ("admission/request: refused: " ^ r));
    run_control "admission/request" "request+release" 200_000 (fun () ->
        ignore (C.request ctrl ~flow:1 ~hops:1 request);
        C.release ctrl ~flow:1)
  in
  (* The per-flow reduction behind every Tables 1-3 row: the 99.9th
     percentile of 3,000 queueing delays, 60% of them tied at zero and
     the rest on a 1 ms grid, priced per sample, the copy included. *)
  let p999_entry =
    let g = Ispn_util.Prng.create ~seed:7L in
    let n = 3_000 and iters = 2_000 in
    let v = Ispn_util.Fvec.create () in
    for _ = 1 to n do
      Ispn_util.Fvec.push v
        (if Ispn_util.Prng.float g < 0.6 then 0.
         else float_of_int (Ispn_util.Prng.int g ~bound:400) *. 1e-3)
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Ispn_util.Quantile.percentile v 99.9)
    done;
    let ns =
      1e9 *. (Unix.gettimeofday () -. t0) /. float_of_int (iters * n)
    in
    Printf.bprintf b "%-22s %8.1f ns per sample (99.9th percentile of %d)\n"
      "stats/p999" ns n;
    ("stats/p999", ns)
  in
  let entries =
    entries
    @ [
        drain_name_ns;
        dense_name_ns;
        mixed_name_ns;
        rearm_name_ns;
        sharded_entry;
        setup_entry;
        refresh_entry;
        request_entry;
        p999_entry;
        ("info.engine_events_per_s", events_per_s);
        ("info.engine_pending_hwm", float_of_int pending_hwm);
      ]
  in
  if json then begin
    let oc = open_out "BENCH_micro.json" in
    output_string oc "{\n";
    let last = List.length entries - 1 in
    List.iteri
      (fun i (name, ns) ->
        Printf.fprintf oc "  %S: %.1f%s\n" name ns (if i = last then "" else ","))
      entries;
    output_string oc "}\n";
    close_out oc;
    Printf.eprintf "wrote BENCH_micro.json\n%!"
  end;
  { Section.text = Buffer.contents b; exports = Section.no_exports }

let micro ~json =
  bench_only "micro" ~flags:[]
    ~epilogue:
      "\nShape to check: every scheduler's per-packet cost is far below a\n\
       1 ms packet transmission time — cheap enough to run at every switch\n\
       for every packet (the Section 1 constraint); the time-stamp schedulers\n\
       cost a small multiple of FIFO."
    (run_micro ~json)

(* ---- main ---------------------------------------------------------------- *)

open Cmdliner

(* Every section bench runs, named or in run-all order. *)
let sections ~json = Section.all @ [ seeds; trace; micro ~json ]

let run json (p : Ispn_front.params) names =
  Ispn_front.guard @@ fun () ->
  let all = sections ~json in
  let name (s : Section.t) = s.name in
  let named n =
    match List.find_opt (fun s -> name s = n) all with
    | None ->
        invalid_arg
          (Printf.sprintf "unknown section %S; available: %s" n
             (String.concat ", " (List.map name all)))
    | Some s ->
        (* A named section must honor every observability flag given:
           silently writing an empty audit or snapshot would read as a clean
           result.  Run-all mode applies each where honored. *)
        List.iter
          (fun (on, flag, opt) ->
            if on && not (List.mem flag s.flags) then
              invalid_arg
                (Printf.sprintf "section %s does not honor %s" n opt))
          [
            (p.ctx.check, Section.Check, "--check");
            (p.metrics <> None, Section.Metrics, "--metrics");
            (p.series <> None, Section.Series, "--series");
          ];
        s
  in
  let to_run =
    match names with
    | [] -> List.filter (fun s -> name s <> "micro") all
    | names ->
        if List.mem "micro" names && List.length names > 1 then
          invalid_arg
            "micro must run alone: its timings are only valid in a fresh \
             process";
        List.map named names
  in
  Printf.printf
    "CSZ SIGCOMM'92 reproduction benches — %.0f s simulated per run, seed \
     %Ld\n"
    p.ctx.duration p.ctx.seed;
  let exports =
    List.concat_map
      (fun (s : Section.t) ->
        Printf.printf "\n%s\n%s\n" s.name
          (String.make (String.length s.name) '=');
        let t0 = Unix.gettimeofday () in
        let o = s.run (Section.capped s p.ctx) in
        print_string (Section.render s o);
        (* Host time is nondeterministic; stderr keeps stdout reproducible.
           The line names both parallelism widths — the pool fan-out (-j)
           and the intra-simulation sharding (--shards) — so A/B timing runs
           are self-describing. *)
        Printf.eprintf "[%s done in %.1fs of host time; jobs=%d shards=%d]\n%!"
          s.name
          (Unix.gettimeofday () -. t0)
          p.ctx.jobs p.ctx.shards;
        o.exports)
      to_run
  in
  Section.finish ?metrics:p.metrics ?series:p.series exports

let () =
  let json =
    let doc = "With $(b,micro): also write the rows to BENCH_micro.json." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let trace_cap =
    let doc = "Flight-recorder ring capacity of the $(b,trace) section." in
    Arg.(value & opt (some int) None & info [ "trace-cap" ] ~docv:"N" ~doc)
  in
  let names =
    let doc =
      "Sections to run, in order; none runs every section but $(b,micro), \
       which runs only alone."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"SECTION" ~doc)
  in
  let params =
    Ispn_front.params ~trace_cap
      [ Fast; Debug; Check; Metrics; Series; Jobs; Shards ]
  in
  let doc =
    "Regenerate the paper's tables and the extension experiments at 600 s \
     (60 s with --fast) of simulated time."
  in
  Ispn_front.eval
    (Cmd.v (Cmd.info "bench" ~doc)
       Term.(ret (const run $ json $ params $ names)))
