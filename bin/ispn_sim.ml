(* Command-line driver: rerun any of the paper's experiments (and the
   extensions) with custom durations, seeds and rates.  Every shared
   section is one Csz.Section entry made a subcommand by Ispn_front, so its
   flags and stdout are the bench's, minus the banner; trace, profile and
   backlog are CLI-only. *)

open Cmdliner
module Front = Ispn_front
module Section = Csz.Section

(* The Appendix source's parameters, for the CLI-only characterizations. *)
let source_params = Front.params [ Duration; Seed; Avg_rate ]

let profile_cmd =
  let run { Front.ctx = { Section.duration; seed; avg_rate; _ }; _ } =
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
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ source_params)

let backlog_cmd =
  let run { Front.ctx = { Section.duration; seed; avg_rate; _ }; _ } =
    (* The Table-1 single link, instrumented for queue depth instead of
       delay: how close does the paper's 200-packet buffer come to full?
       The watcher starts sampling once the sources run. *)
    let watcher = ref None in
    let _, info =
      Csz.Experiment.(run ~qdisc_of:(qdisc Fifo))
        ~wire:(fun w () ->
          watcher :=
            Some
              (Ispn_sim.Backlog.watch ~engine:w.engine
                 ~link:(Ispn_sim.Network.link w.net 0) ()))
        ~duration ~seed
        (Csz.Scenario.single_link ~avg_rate_pps:avg_rate ())
    in
    let watcher = Option.get !watcher in
    Printf.printf
      "Queue depth over %.0f s at %.1f%% load: mean %.1f, 99.9%%ile %.0f, max        %.0f of %d packets\n\n"
      duration
      (100. *. info.Csz.Experiment.utilization.(0))
      (Ispn_sim.Backlog.mean watcher)
      (Ispn_sim.Backlog.percentile watcher 99.9)
      (Ispn_sim.Backlog.max watcher)
      Ispn_util.Units.buffer_packets;
    print_string
      (Ispn_util.Loghist.render ~unit_label:"pkts"
         (Ispn_sim.Backlog.histogram watcher))
  in
  let doc =
    "Sample the single-link queue depth: how close the 200-packet buffer \
     comes to overflow at the Appendix's load."
  in
  Cmd.v (Cmd.info "backlog" ~doc) Term.(const run $ source_params)

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
    Arg.(value & opt int 5 & info [ "worst" ] ~docv:"N" ~doc)
  in
  let events =
    let doc =
      "Flight-recorder ring capacity in events; the ring keeps the newest."
    in
    Arg.(
      value
      & opt int (1 lsl 20)
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
  let run { Front.ctx = { Section.duration; seed; trace_cap; _ }; _ }
      experiment worst dump =
    Front.guard @@ fun () ->
    if worst < 1 then
      invalid_arg
        (Printf.sprintf "--worst expects a positive integer (got %d)" worst);
    let recorder = Ispn_obs.Recorder.create ?capacity:trace_cap () in
    let res =
      Csz.Extensions.run_trace ~experiment ~worst ~recorder ~duration ~seed ()
    in
    print_string (Csz.Report.trace res);
    Option.iter
      (fun path ->
        Ispn_obs.Recorder.write_csv path recorder;
        Printf.eprintf "wrote %s\n%!" path)
      dump
  in
  let doc =
    "E12: run an experiment with the flight recorder attached and print the \
     worst packets' per-hop delay decomposition (queueing + transmission per \
     link, summing to the end-to-end delay the probe saw)."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const run
        $ Front.params ~trace_cap:(const Option.some $ events)
            [ Duration; Seed; Fast ]
        $ experiment $ worst $ dump))

let default =
  let doc =
    "Reproduction of Clark, Shenker & Zhang, \"Supporting Real-Time \
     Applications in an Integrated Services Packet Network\" (SIGCOMM 1992)."
  in
  Cmd.group
    (Cmd.info "ispn_sim" ~version:"1.0.0" ~doc)
    (List.map Front.section_cmd Section.all
    @ [ profile_cmd; backlog_cmd; trace_cmd ])

let () = Front.eval default
