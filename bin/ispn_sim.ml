(* Command-line driver: rerun any of the paper's experiments (and the
   extensions) with custom durations, seeds and rates.  Every shared
   section is one Csz.Section entry, so its stdout is the bench's, minus
   the banner; trace, profile and backlog are CLI-only. *)

open Cmdliner
module Section = Csz.Section

let duration =
  let doc = "Simulated duration in seconds (the paper uses 600)." in
  Arg.(value & opt float 600. & info [ "d"; "duration" ] ~docv:"SECONDS" ~doc)

let seed =
  let doc = "PRNG seed; equal seeds reproduce runs bit-for-bit." in
  Arg.(value & opt int64 42L & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let avg_rate =
  let doc = "Per-flow average packet rate A (packets/second)." in
  Arg.(value & opt float 85. & info [ "a"; "avg-rate" ] ~docv:"PPS" ~doc)

let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n > 0 -> Ok n
    | Ok _ -> Error (`Msg "expected a positive integer")
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs =
  let doc =
    "Domains to fan independent simulation runs over (Ispn_exec.Pool). \
     Results are bit-identical for any value; defaults to the host's \
     recommended domain count."
  in
  Arg.(
    value
    & opt positive (Ispn_exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shards =
  let doc =
    "Domains to shard the one simulation over (conservative lock-step \
     windows, Ispn_sim.Shardnet).  The result table is byte-identical for \
     every width; only wall time and the stderr diagnostics change."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let verbose =
  let doc = "Also print per-flow statistics." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let fast =
  let doc = "Simulate 60 s regardless of --duration (CI smoke)." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let debug =
  let doc =
    "Log admission decisions, flow establishment and buffer drops to stderr."
  in
  Arg.(value & flag & info [ "debug" ] ~doc)

let metrics_arg =
  let doc =
    "Print deterministic [obs] footer lines (engine counters, per-link \
     drops/pool/wait) and write the full metrics snapshots to $(docv) — \
     CSV if it ends in .csv, JSON otherwise.  Snapshots are merged in \
     canonical job order, so the file is byte-identical for every -j."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let series_arg =
  let doc =
    "Sample every instrument once per simulated second and write the \
     labeled timelines, plus per-channel delay-histogram percentiles, to \
     $(docv) — CSV if it ends in .csv, JSON otherwise.  Sampling is keyed \
     by sim time and exports merge in canonical job order, so the file is \
     byte-identical for every -j; default stdout is unchanged."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let check_arg =
  let doc =
    "Attach the $(b,ispn_check) conformance auditor to every link (packet \
     conservation, pool accounting, work-conservation, delay monotonicity, \
     token-bucket conformance, PG bounds) and print deterministic [check] \
     footer lines.  Exits 1 if any invariant is violated.  Stdout is \
     byte-identical to a run without the flag, minus the footers, and \
     -j-independent with it."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let fail msg =
  Printf.eprintf "ispn_sim: %s\n%!" msg;
  exit 2

let ctx_or_fail = function Ok c -> c | Error msg -> fail msg

(* One subcommand per registry entry, with exactly the options it declares;
   an undeclared option is a constant the entry never reads. *)
let section_cmd (s : Section.t) =
  let opt f default term =
    if List.mem f s.flags then term else Term.const default
  in
  let some f term = opt f None Term.(const Option.some $ term) in
  let run duration seed avg_rate jobs shards verbose fast debug check metrics
      series =
    if debug then Ispn_util.Log.setup ~level:Logs.Debug ();
    let duration = if fast then Some 60. else duration in
    let ctx =
      ctx_or_fail
        (Section.ctx ?duration ?seed ?avg_rate ?jobs ?shards ~verbose ~check
           ~metrics:(metrics <> None) ~series:(series <> None) ())
    in
    let o = try s.run ctx with Invalid_argument msg -> fail msg in
    print_string (Section.render s o);
    Section.finish ?metrics ?series o.exports
  in
  Cmd.v (Cmd.info s.name ~doc:s.doc)
    Term.(
      const run
      $ some Duration duration $ some Seed seed $ some Avg_rate avg_rate
      $ some Jobs jobs $ some Shards shards $ opt Verbose false verbose
      $ opt Fast false fast $ opt Debug false debug $ opt Check false check_arg
      $ opt Metrics None metrics_arg $ opt Series None series_arg)

let profile_cmd =
  let run duration seed avg_rate =
    let { Section.duration; seed; avg_rate; _ } =
      ctx_or_fail (Section.ctx ~duration ~seed ~avg_rate ())
    in
    (* Record the Appendix's on/off process and characterize it: the b(r)
       curve and the clock rate a guaranteed client should request. *)
    let engine = Ispn_sim.Engine.create () in
    let profile = Ispn_traffic.Profile.create () in
    let source =
      Ispn_traffic.Onoff.create ~engine
        ~prng:(Ispn_util.Prng.create ~seed)
        ~flow:0 ~avg_rate_pps:avg_rate
        ~emit:(fun pkt ->
          Ispn_traffic.Profile.record profile
            ~time:(Ispn_sim.Engine.now engine)
            ~bits:(Ispn_sim.Packet.size_bits pkt);
          Ispn_sim.Packet.free pkt)
        ()
    in
    source.Ispn_traffic.Source.start ();
    Ispn_sim.Engine.run engine ~until:duration;
    Printf.printf
      "Recorded %d packets over %.0f s: mean %.0f bit/s, peak %.0f bit/s\n\n"
      (Ispn_traffic.Profile.packets profile)
      duration
      (Ispn_traffic.Profile.mean_rate_bps profile)
      (Ispn_traffic.Profile.peak_rate_bps profile);
    print_endline "b(r), the minimal token-bucket depth at clock rate r:";
    let mean = Ispn_traffic.Profile.mean_rate_bps profile in
    List.iter
      (fun mult ->
        let r = mean *. mult in
        let b = Ispn_traffic.Profile.min_depth_bits profile ~rate_bps:r in
        let bound1 = Ispn_traffic.Profile.delay_bound profile ~rate_bps:r ~hops:1 in
        Printf.printf
          "  r = %.2f x mean = %7.0f bit/s   b(r) = %6.0f bits (%.0f pkts)  \
           1-hop bound %.1f ms\n"
          mult r b (b /. 1000.) (1000. *. bound1))
      [ 1.02; 1.1; 1.25; 1.5; 1.75; 2.0 ];
    print_newline ();
    List.iter
      (fun target ->
        match
          Ispn_traffic.Profile.clock_rate_for_delay profile ~target ~hops:4 ()
        with
        | Some r ->
            Printf.printf
              "For a %.0f ms bound over 4 hops, request clock rate %.0f \
               bit/s (%.2f x mean)\n"
              (1000. *. target) r (r /. mean)
        | None ->
            Printf.printf
              "A %.0f ms bound over 4 hops is infeasible for this source\n"
              (1000. *. target))
      [ 0.6; 0.2; 0.05 ]
  in
  let doc =
    "Characterize an on/off source: its b(r) curve and the guaranteed-service \
     clock rate needed for a target delay bound (Section 4's client-side \
     computation)."
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ duration $ seed $ avg_rate)

let backlog_cmd =
  let run duration seed avg_rate =
    let { Section.duration; seed; avg_rate; _ } =
      ctx_or_fail (Section.ctx ~duration ~seed ~avg_rate ())
    in
    (* The Table-1 single link, instrumented for queue depth instead of
       delay: how close does the paper's 200-packet buffer come to full? *)
    let engine = Ispn_sim.Engine.create () in
    let prng = Ispn_util.Prng.create ~seed in
    let pool = Ispn_sim.Qdisc.pool ~capacity:Ispn_util.Units.buffer_packets in
    let net =
      Ispn_sim.Network.chain ~engine ~n_switches:2 ~rate_bps:1e6
        ~qdisc_of:(fun _ -> Ispn_sched.Fifo.create ~pool ())
        ()
    in
    for flow = 0 to 9 do
      Ispn_sim.Network.install_flow net ~flow ~ingress:0 ~egress:1
        ~sink:(fun _ -> ());
      let bucket =
        Ispn_traffic.Token_bucket.create
          ~rate_bps:(avg_rate *. 1000.)
          ~depth_bits:50_000. ()
      in
      let policer =
        Ispn_traffic.Token_bucket.policer ~engine ~bucket
          ~mode:Ispn_traffic.Token_bucket.Drop
          ~next:(fun pkt -> Ispn_sim.Network.inject net ~at_switch:0 pkt)
      in
      let source =
        Ispn_traffic.Onoff.create ~engine ~prng:(Ispn_util.Prng.split prng)
          ~flow ~avg_rate_pps:avg_rate
          ~emit:(Ispn_traffic.Token_bucket.admit_fn policer)
          ()
      in
      source.Ispn_traffic.Source.start ()
    done;
    let watcher =
      Ispn_sim.Backlog.watch ~engine ~link:(Ispn_sim.Network.link net 0) ()
    in
    Ispn_sim.Engine.run engine ~until:duration;
    Printf.printf
      "Queue depth over %.0f s at %.1f%% load: mean %.1f, 99.9%%ile %.0f, max        %.0f of %d packets\n\n"
      duration
      (100. *. Ispn_sim.Network.utilization net ~link:0 ~elapsed:duration)
      (Ispn_sim.Backlog.mean watcher)
      (Ispn_sim.Backlog.percentile watcher 99.9)
      (Ispn_sim.Backlog.max watcher)
      Ispn_util.Units.buffer_packets;
    print_string
      (Ispn_util.Histogram.render ~unit_label:"pkts"
         (Ispn_sim.Backlog.histogram ~bins:16 watcher))
  in
  let doc =
    "Sample the single-link queue depth: how close the 200-packet buffer \
     comes to overflow at the Appendix's load."
  in
  Cmd.v (Cmd.info "backlog" ~doc) Term.(const run $ duration $ seed $ avg_rate)

let trace_cmd =
  let experiment =
    let doc =
      "Experiment to record: $(b,table1) (single FIFO link), $(b,table2) \
       (FIFO+ Figure-1 chain) or $(b,table3) (unified CSZ scheduler)."
    in
    Arg.(
      value
      & pos 0
          (Arg.enum
             [
               ("table1", Csz.Extensions.T_table1);
               ("table2", Csz.Extensions.T_table2);
               ("table3", Csz.Extensions.T_table3);
             ])
          Csz.Extensions.T_table2
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let worst =
    let doc = "Number of worst-delay packets to break down." in
    Arg.(value & opt positive 5 & info [ "worst" ] ~docv:"N" ~doc)
  in
  let events =
    let doc =
      "Flight-recorder ring capacity in events; the ring keeps the newest."
    in
    Arg.(
      value
      & opt positive (1 lsl 20)
      & info [ "events"; "trace-cap" ] ~docv:"N" ~doc)
  in
  let dump =
    let doc =
      "Also write the surviving ring (oldest event first) to $(docv) as CSV \
       with one typed column per event field — \
       time,kind,link,flow,seq,cls,offset,value,cause."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let run duration seed experiment worst events fast dump =
    let { Section.duration; seed; _ } =
      ctx_or_fail
        (Section.ctx ~duration:(if fast then 60. else duration) ~seed ())
    in
    (* Build the ring here when --dump asks for it, so its contents survive
       the run for export; run_trace attaches whichever ring it gets. *)
    let recorder =
      Option.map
        (fun _ -> Ispn_obs.Recorder.create ~capacity:events ())
        dump
    in
    let res =
      Csz.Extensions.run_trace ~experiment ~worst ~capacity:events ?recorder
        ~duration ~seed ()
    in
    print_string (Csz.Report.trace res);
    match (dump, recorder) with
    | Some path, Some r ->
        Ispn_obs.Recorder.write_csv path r;
        Printf.eprintf "wrote %s\n%!" path
    | _ -> ()
  in
  let doc =
    "E12: run an experiment with the flight recorder attached and print the \
     worst packets' per-hop delay decomposition (queueing + transmission per \
     link, summing to the end-to-end delay the probe saw)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ duration $ seed $ experiment $ worst $ events $ fast $ dump)

let default =
  let doc =
    "Reproduction of Clark, Shenker & Zhang, \"Supporting Real-Time \
     Applications in an Integrated Services Packet Network\" (SIGCOMM 1992)."
  in
  Cmd.group
    (Cmd.info "ispn_sim" ~version:"1.0.0" ~doc)
    (List.map section_cmd Section.all @ [ profile_cmd; backlog_cmd; trace_cmd ])

(* Bad command-line input exits 2, as in the bench, not cmdliner's 124. *)
let () =
  let code = Cmd.eval default in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
