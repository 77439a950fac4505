open Ispn_sim
module Units = Ispn_util.Units
module Prng = Ispn_util.Prng
module Dist = Ispn_util.Dist
module Fcmp = Ispn_util.Fcmp
module Spec = Ispn_admission.Spec
module Controller = Ispn_admission.Controller
module Meter = Ispn_admission.Meter

(* --- E1: scheduler bake-off ---------------------------------------------- *)

type bakeoff_sched =
  | B_wfq
  | B_fifo
  | B_mc_fifo
  | B_fifo_plus
  | B_virtual_clock
  | B_edf
  | B_drr
  | B_wrr
  | B_rr_groups
  | B_cbs
  | B_ats
  | B_stop_and_go
  | B_hrr
  | B_jitter_edd

let bakeoff_name = function
  | B_wfq -> "WFQ"
  | B_fifo -> "FIFO"
  | B_mc_fifo -> "MC-FIFO"
  | B_fifo_plus -> "FIFO+"
  | B_virtual_clock -> "VirtualClock"
  | B_edf -> "EDF"
  | B_drr -> "DRR"
  | B_wrr -> "WRR"
  | B_rr_groups -> "RR-groups"
  | B_cbs -> "CBS"
  | B_ats -> "ATS"
  | B_stop_and_go -> "Stop-and-Go"
  | B_hrr -> "HRR"
  | B_jitter_edd -> "Jitter-EDD"

(* Figure-1 shaper parameters shared by the modern-shaper rows and their
   analytic bounds: every flow is policed to (85 pkt/s, 50 pkt), i.e.
   (85 000 bit/s, 50 000 bits) at 1000-bit packets. *)
let bakeoff_rate_bps = Scenario.default_avg_rate_pps *. float Units.packet_bits

let bakeoff_burst_bits =
  Scenario.token_bucket_depth_packets *. float Units.packet_bits

(* Seconds to packet-transmission times at the paper's rates. *)
let to_units =
  Units.packet_times ~link_rate_bps:Units.link_rate_bps
    ~packet_bits:Units.packet_bits

let fig1_hops =
  let a = Array.make 22 0 in
  List.iter
    (fun (fs : Scenario.flow_spec) -> a.(fs.Scenario.flow) <- Scenario.hops fs)
    Scenario.figure1_flows;
  a

(* CBS runs two TSN-style classes: A (index 0, the 1-hop flows) and B
   (everything longer); ATS runs one strict-priority class per path
   length, shortest paths highest.  Both maps are per flow, so class
   membership is consistent along a path. *)
let cbs_class_of flow = if fig1_hops.(flow) = 1 then 0 else 1
let ats_class_of flow = fig1_hops.(flow) - 1

(* Per-link idle slopes: each class gets its reserved rate plus an equal
   share of the link's headroom, so the slopes sum to the link rate and
   every class's slope strictly covers its load. *)
let cbs_idle_slopes link =
  let r = Array.make 2 0. in
  List.iter
    (fun (fs : Scenario.flow_spec) ->
      let c = cbs_class_of fs.Scenario.flow in
      r.(c) <- r.(c) +. bakeoff_rate_bps)
    (Scenario.flows_on_link link);
  let headroom = Units.link_rate_bps -. (r.(0) +. r.(1)) in
  [| r.(0) +. (headroom /. 2.); r.(1) +. (headroom /. 2.) |]

let bakeoff_qdisc sched engine ~pool link =
  let link_rate_bps = Units.link_rate_bps in
  match sched with
  | B_wfq -> Ispn_sched.Wfq.create_equal ~pool ~link_rate_bps ()
  | B_fifo -> Ispn_sched.Fifo.create ~pool ()
  | B_mc_fifo ->
      (* The multiclass-FIFO configuration is the plain FIFO: classes
         share the queue, and the Jiang-Misra per-class bound (computed
         in [bakeoff_bounds]) is what distinguishes the row. *)
      Ispn_sched.Fifo.create ~pool ()
  | B_fifo_plus -> snd (Ispn_sched.Fifo_plus.create ~pool ())
  | B_virtual_clock ->
      (* Ten flows per link: each is entitled to a tenth of the link. *)
      Ispn_sched.Virtual_clock.create ~pool
        ~rate_of:(fun _ -> link_rate_bps /. 10.)
        ()
  | B_edf ->
      (* Equal per-hop budgets: Section 5 predicts this degenerates to
         FIFO, which the bake-off table lets the reader confirm. *)
      Ispn_sched.Edf.create ~pool ~deadline_of:(fun _ -> 0.01) ()
  | B_drr -> Ispn_sched.Drr.create ~pool ~quantum_bits:Units.packet_bits ()
  | B_wrr ->
      (* Equal unit weights over the ten flows of each link: plain
         packet-counted round robin, the Constantin et al. baseline. *)
      Ispn_sched.Wrr.create ~pool ()
  | B_cbs ->
      Ispn_sched.Cbs.create ~engine ~pool
        ~idle_slopes_bps:(cbs_idle_slopes link) ~class_of:cbs_class_of ()
  | B_ats ->
      (* Interleaved regulators re-shape every flow to its original
         policing envelope at each hop. *)
      Ispn_sched.Ats.create ~engine ~pool ~n_classes:4 ~class_of:ats_class_of
        ~shaper_of:(fun _ -> (bakeoff_rate_bps, bakeoff_burst_bits))
        ()
  | B_rr_groups ->
      (* One group per flow: per-flow round robin, the Jacobson-Floyd
         within-priority scheme. *)
      Ispn_sched.Rr_groups.create ~pool ~n_groups:22
        ~group_of:(fun p -> Packet.flow p)
        ()
  | B_stop_and_go ->
      (* Frame sized so that every flow's per-frame allocation holds its
         average rate: 10 flows at 85 pkt/s on a 1000 pkt/s link gives
         about 10 packets per 10 ms frame. *)
      Ispn_sched.Stop_and_go.create ~engine ~frame:0.010 ~pool ()
  | B_hrr ->
      (* 20 ms frames with 2 slots per flow: each flow is rate-limited to
         100 pkt/s, just above its 85 pkt/s average. *)
      Ispn_sched.Hrr.create ~engine ~frame:0.020 ~slots_of:(fun _ -> 2) ~pool
        ()
  | B_jitter_edd ->
      (* Per-hop budget of 20 packet times: enough for the observed
         per-hop 99.9%ile, so deadline misses are rare. *)
      Ispn_sched.Jitter_edd.create ~engine ~budget_of:(fun _ -> 0.020) ~pool
        ()

let bakeoff_bound_kind = function
  | B_cbs -> Some Ispn_check.Audit.Cbs
  | B_ats -> Some Ispn_check.Audit.Ats
  | B_wrr -> Some Ispn_check.Audit.Wrr
  | B_mc_fifo -> Some Ispn_check.Audit.Mc_fifo
  | _ -> None

(* End-to-end analytic queueing-delay bounds for the modern-shaper rows
   (None for the classic schedulers): iterate the four links in path
   order, give every flow crossing link [li] its per-hop bound from the
   scheduler's service curve ([Ispn_util.Analytic]), and grow the flow's
   burst by [rate * hop_bound] for the next hop (a system with delay
   bound [d] outputs at most [(burst + rate*d, rate)]).  ATS is the
   exception: its per-hop regulators re-shape every flow to the original
   envelope, so bursts never grow and — by the interleaved-regulator
   shaping-for-free theorem — the regulator holds add nothing beyond the
   per-hop strict-priority bounds being summed.  Deterministic (pure
   arithmetic on the Figure-1 constants), so rows can print the bounds
   whether or not [--check] is on. *)
let bakeoff_bounds sched =
  match bakeoff_bound_kind sched with
  | None -> None
  | Some _ ->
      let module A = Ispn_util.Analytic in
      let lr = Units.link_rate_bps in
      let l = Units.packet_bits in
      let burst = Array.make 22 bakeoff_burst_bits in
      let cum = Array.make 22 0. in
      let add_hop f d =
        cum.(f) <- cum.(f) +. d;
        burst.(f) <- burst.(f) +. (bakeoff_rate_bps *. d)
      in
      for li = 0 to 3 do
        let flows = Scenario.flows_on_link li in
        let each g =
          List.iter (fun (fs : Scenario.flow_spec) -> g fs.Scenario.flow) flows
        in
        match sched with
        | B_wrr ->
            let total_weight = List.length flows in
            let rate, lat =
              A.wrr_service ~link_rate_bps:lr ~weight:1 ~total_weight
                ~max_packet_bits:l
            in
            each (fun f ->
                add_hop f
                  (A.rate_latency_delay ~burst_bits:burst.(f)
                     ~rate_bps:bakeoff_rate_bps ~service_rate_bps:rate
                     ~latency_s:lat))
        | B_mc_fifo ->
            let total_burst = ref 0. and total_rate = ref 0. in
            each (fun f ->
                total_burst := !total_burst +. burst.(f);
                total_rate := !total_rate +. bakeoff_rate_bps);
            let d =
              A.mc_fifo_delay ~link_rate_bps:lr ~total_burst_bits:!total_burst
                ~total_rate_bps:!total_rate ~max_packet_bits:l
            in
            each (fun f -> add_hop f d)
        | B_cbs ->
            let slopes = cbs_idle_slopes li in
            let bc = Array.make 2 0. and rc = Array.make 2 0. in
            each (fun f ->
                let c = cbs_class_of f in
                bc.(c) <- bc.(c) +. burst.(f);
                rc.(c) <- rc.(c) +. bakeoff_rate_bps);
            let d_class c =
              let lat =
                A.cbs_latency ~link_rate_bps:lr ~idle_slope_bps:slopes.(c)
                  ~higher_slope_bps:(if c = 0 then 0. else slopes.(0))
                  ~max_packet_bits:l
              in
              A.rate_latency_delay ~burst_bits:bc.(c) ~rate_bps:rc.(c)
                ~service_rate_bps:slopes.(c) ~latency_s:lat
            in
            let d = [| d_class 0; d_class 1 |] in
            each (fun f -> add_hop f d.(cbs_class_of f))
        | B_ats ->
            (* Shaped (original) per-flow envelopes at every hop. *)
            let bc = Array.make 4 0. and rc = Array.make 4 0. in
            each (fun f ->
                let c = ats_class_of f in
                bc.(c) <- bc.(c) +. bakeoff_burst_bits;
                rc.(c) <- rc.(c) +. bakeoff_rate_bps);
            each (fun f ->
                let c = ats_class_of f in
                let hr = ref 0. and hb = ref 0. in
                for q = 0 to c - 1 do
                  hr := !hr +. rc.(q);
                  hb := !hb +. bc.(q)
                done;
                let rate, lat =
                  A.sp_service ~link_rate_bps:lr ~higher_rate_bps:!hr
                    ~higher_burst_bits:!hb ~max_packet_bits:l
                in
                (* Bursts stay shaped: no growth, just the hop bound. *)
                cum.(f) <-
                  cum.(f)
                  +. A.rate_latency_delay ~burst_bits:bc.(c) ~rate_bps:rc.(c)
                       ~service_rate_bps:rate ~latency_s:lat)
        | _ -> assert false
      done;
      Some
        (List.map
           (fun (fs : Scenario.flow_spec) ->
             (fs.Scenario.flow, cum.(fs.Scenario.flow)))
           Scenario.figure1_flows)

type bakeoff_row = {
  bk_sched : bakeoff_sched;
  bk_results : Experiment.flow_result list;
  bk_bounds : (int * float) list option;
  bk_check : Ispn_check.Audit.summary option;
}

let bakeoff_scheds =
  [
    B_wfq; B_fifo; B_mc_fifo; B_fifo_plus; B_virtual_clock; B_edf; B_drr;
    B_wrr; B_rr_groups; B_cbs; B_ats; B_stop_and_go; B_hrr; B_jitter_edd;
  ]

let run_bakeoff ?(duration = Units.sim_duration_s) ?(seed = 42L) ?(j = 1)
    ?(check = false) ?(scheds = bakeoff_scheds) () =
  Ispn_exec.Pool.map ~j
    (fun sched ->
      let instr = Instr.create ~check ~metrics:false ~series:false in
      let bounds = bakeoff_bounds sched in
      (match (Instr.audit instr, bounds, bakeoff_bound_kind sched) with
      | Some a, Some bs, Some kind ->
          List.iter
            (fun (flow, bound_s) ->
              let spec =
                List.find
                  (fun (fs : Scenario.flow_spec) -> fs.Scenario.flow = flow)
                  Scenario.figure1_flows
              in
              Ispn_check.Audit.register_delay_bound a ~kind ~flow
                ~link:(spec.Scenario.egress - 1) ~bound_s)
            bs
      | _ -> ());
      let results, _ =
        Experiment.run ~instr ~qdisc_of:(bakeoff_qdisc sched) ~duration ~seed
          (Scenario.figure1 ())
      in
      {
        bk_sched = sched;
        bk_results = results;
        bk_bounds = bounds;
        bk_check = (Instr.finish instr).audit;
      })
    scheds

(* --- E2: admission policies ---------------------------------------------- *)

type admission_policy = Measured | Worst_case | Open_door

let policy_name = function
  | Measured -> "measured (Section 9)"
  | Worst_case -> "worst-case declared"
  | Open_door -> "no admission control"

type admission_result = {
  policy : admission_policy;
  requests : int;
  accepted : int;
  mean_utilization : float;
  violation_rate : float;
  net_drop_rate : float;
}

(* A pre-drawn flow request: arrival instant, holding time, and whether it
   asks for the tight or the loose delay class. *)
type offered_flow = {
  of_id : int;
  at : float;
  holding : float;
  tight : bool;
  src_seed : int64;
}

(* Poisson arrivals at 0.5 flows/s, exponential holding times of mean
   60 s. *)
let draw_offered_load ~seed ~duration =
  let arrival_rate = 0.5 and mean_holding = 60. in
  let prng = Prng.create ~seed in
  let rec go t acc id =
    let t = t +. Dist.exponential prng ~mean:(1. /. arrival_rate) in
    if t >= duration then List.rev acc
    else
      let f =
        {
          of_id = id;
          at = t;
          holding = Dist.exponential prng ~mean:mean_holding;
          tight = Prng.bool prng;
          src_seed = Prng.int64 prng;
        }
      in
      go t (f :: acc) (id + 1)
  in
  go 0. [] 0

(* The fraction of the predicted-class delays [meters] noted that missed
   their class target. *)
let violation_rate meters =
  let noted = List.fold_left (fun n m -> n + Meter.noted m) 0 meters in
  if noted = 0 then 0.
  else
    float_of_int (List.fold_left (fun n m -> n + Meter.over_target m) 0 meters)
    /. float_of_int noted

let run_admission_policy ~policy ~offered ~duration =
  let live = Packet.mark () in
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches:2 () in
  let sched = Fabric.sched fab ~link:0 in
  let ctrl = Controller.create ~n_links:1 () in
  (* The meter counts the class-target violations every policy is judged
     by, whether or not the policy reads it. *)
  let pump =
    Fabric.feed_meters fab
      ~meter:(fun link -> Controller.meter ctrl ~link)
      ~epoch:(fun () -> Controller.epoch ctrl)
  in
  let class_targets = Spec.class_targets in
  (* Worst-case bookkeeping: declared rates of live flows. *)
  let declared = ref 0. in
  let offered_pkts = ref 0 in
  let decide flow (bucket : Spec.bucket) target =
    match policy with
    | Measured -> (
        match
          Controller.request ctrl ~flow ~path:[ 0 ]
            (Spec.Predicted
               { bucket; target_delay = target; target_loss = 0.01 })
        with
        | Controller.Admitted { cls = Some cls } -> Some cls
        | Controller.Admitted { cls = None } -> None
        | Controller.Rejected _ -> None)
    | Worst_case ->
        let cls = if target <= class_targets.(0) then 0 else 1 in
        let mu = Units.link_rate_bps in
        let r = bucket.Spec.rate_bps and b = bucket.Spec.depth_bits in
        let fits =
          r +. !declared < 0.9 *. mu
          && b < class_targets.(cls) *. (mu -. !declared -. r)
        in
        if fits then Some cls else None
    | Open_door ->
        Some (if target <= class_targets.(0) then 0 else 1)
  in
  (* Clients declare their bucket at the source's *peak* rate — the safe
     declaration a real client makes — while their actual average is half
     that.  This overstatement is exactly where measurement-based admission
     wins: a worst-case controller books the declared 170 kbit/s per flow
     and saturates its books at ~5 flows, while the measured controller
     sees the true ~83 kbit/s usage. *)
  let bucket = Spec.bucket ~rate_pps:170. ~depth_packets:5. () in
  let accepted = ref 0 in
  List.iter
    (fun f ->
      ignore
        (Engine.schedule engine ~at:f.at (fun () ->
             let target = class_targets.(if f.tight then 0 else 1) in
             match decide f.of_id bucket target with
             | None ->
                 if policy <> Measured then ()
                 (* Measured-policy rejections are already counted by the
                    controller; nothing else to do either way. *)
             | Some cls ->
                 incr accepted;
                 declared := !declared +. bucket.Spec.rate_bps;
                 Csz_sched.set_predicted sched ~flow:f.of_id ~cls;
                 let probe_sink _ = () in
                 Fabric.install_flow fab ~flow:f.of_id ~ingress:0 ~egress:1
                   ~sink:probe_sink;
                 let tb =
                   Ispn_traffic.Token_bucket.create
                     ~rate_bps:bucket.Spec.rate_bps
                     ~depth_bits:bucket.Spec.depth_bits ()
                 in
                 let policer =
                   Ispn_traffic.Token_bucket.policer ~engine ~bucket:tb
                     ~mode:Ispn_traffic.Token_bucket.Drop ~next:(fun pkt ->
                       incr offered_pkts;
                       Fabric.inject fab ~at_switch:0 pkt)
                 in
                 let source =
                   Ispn_traffic.Onoff.create ~engine
                     ~prng:(Prng.create ~seed:f.src_seed) ~flow:f.of_id
                     ~avg_rate_pps:85.
                     ~emit:(Ispn_traffic.Token_bucket.admit_fn policer)
                     ()
                 in
                 source.Ispn_traffic.Source.start ();
                 ignore
                   (Engine.schedule_after engine ~delay:f.holding (fun () ->
                        source.Ispn_traffic.Source.stop ();
                        declared := !declared -. bucket.Spec.rate_bps;
                        Csz_sched.clear_predicted sched ~flow:f.of_id;
                        if policy = Measured then
                          Controller.release ctrl ~flow:f.of_id)))))
    offered;
  (* Measurement pump for the controller (1 s epochs). *)
  pump ();
  Engine.run engine ~until:duration;
  Packet.free_since live;
  {
    policy;
    requests = List.length offered;
    accepted = !accepted;
    mean_utilization = Link.utilization (Fabric.link fab 0) ~elapsed:duration;
    violation_rate = violation_rate [ Controller.meter ctrl ~link:0 ];
    net_drop_rate =
      (if !offered_pkts = 0 then 0.
       else
         float_of_int (Network.total_dropped (Fabric.network fab))
         /. float_of_int !offered_pkts);
  }

let run_admission ?(duration = 300.) ?(seed = 42L) ?(j = 1) () =
  (* Drawn once and shared read-only: the three policies face an identical
     offered load. *)
  let offered =
    draw_offered_load ~seed ~duration
  in
  Ispn_exec.Pool.map ~j
    (fun policy -> run_admission_policy ~policy ~offered ~duration)
    [ Measured; Worst_case; Open_door ]

(* --- E3: adaptive vs rigid play-back ------------------------------------- *)

type playback_result = {
  client : string;
  mean_point : float;
  app_loss_rate : float;
}

let run_playback ?(duration = Units.sim_duration_s) ?(seed = 42L) () =
  (* The advertised a-priori bound for the watched 4-hop flow: the sum of
     per-switch class targets, as Section 7 prescribes (4 x 16 ms). *)
  let advertised = 4. *. 0.016 in
  let rigid = Ispn_playback.Client.rigid ~bound:advertised in
  let adaptive =
    Ispn_playback.Client.adaptive ~window:200 ~quantile:0.99 ~margin:0.002
      ~update_every:50 ()
  in
  let vat = Ispn_playback.Client.adaptive_vat ~update_every:1 () in
  (* Re-route flow 0 so its packets also feed the three play-back clients. *)
  let wire (w : Experiment.wiring) =
    let watched = List.hd w.flows in
    Network.install_flow w.net ~flow:0 ~ingress:0 ~egress:4 ~sink:(fun pkt ->
        let delay = Engine.now w.engine -. Packet.created pkt in
        Ispn_playback.Client.receive rigid ~delay;
        Ispn_playback.Client.receive adaptive ~delay;
        Ispn_playback.Client.receive vat ~delay;
        Probe.sink watched.Experiment.probe ~engine:w.engine pkt);
    ignore
  in
  ignore
    (Experiment.run ~wire ~qdisc_of:(Experiment.qdisc Experiment.Fifo_plus)
       ~duration ~seed (Scenario.figure1 ()));
  List.map
    (fun (client, c) ->
      {
        client;
        mean_point = to_units (Ispn_playback.Client.mean_playback_point c);
        app_loss_rate = Ispn_playback.Client.loss_rate c;
      })
    [ ("rigid", rigid); ("adaptive", adaptive); ("vat", vat) ]

(* --- E6: jitter shifting between priority classes ------------------------ *)

type cascade_row = {
  cascade_class : string;
  c_mean : float;
  c_p999 : float;
}

let run_cascade ?(duration = Units.sim_duration_s) ?(seed = 42L) () =
  let n_classes = 4 in
  let config =
    { Csz_sched.default_config with n_predicted_classes = n_classes }
  in
  let sched = ref None in
  let qdisc_of _ ~pool _ =
    let st, q = Csz_sched.create ~config ~pool () in
    sched := Some st;
    q
  in
  (* Per-class per-hop delays straight from the scheduler. *)
  let per_class = Array.init (n_classes + 1) (fun _ -> Ispn_util.Fvec.create ()) in
  (* The single link's ten flows, two per predicted class and two
     datagram flows (class [n_classes]): 10 x 85 pkt/s on a 1000 pkt/s
     link. *)
  let flows_per_class = 2 in
  let wire _ =
    let sched = Option.get !sched in
    Csz_sched.set_delay_hook sched (fun ~cls delay ->
        if cls >= 0 then Ispn_util.Fvec.push per_class.(cls) delay);
    for flow = 0 to (n_classes * flows_per_class) - 1 do
      Csz_sched.set_predicted sched ~flow ~cls:(flow / flows_per_class)
    done;
    ignore
  in
  ignore
    (Experiment.run ~wire ~qdisc_of ~duration ~seed (Scenario.single_link ()));
  List.init (n_classes + 1) (fun cls ->
      let delays = per_class.(cls) in
      let n = Ispn_util.Fvec.length delays in
      {
        cascade_class =
          (if cls = n_classes then "datagram"
           else Printf.sprintf "class %d" cls);
        c_mean =
          (if n = 0 then 0.
           else to_units (Ispn_util.Fvec.sum delays /. float_of_int n));
        c_p999 =
          (if n = 0 then 0.
           else to_units (Ispn_util.Quantile.percentile delays 99.9));
      })

(* --- E4: isolation vs sharing with a misbehaving source ------------------ *)

type isolation_row = {
  iso_sched : string;
  honest_mean : float;
  honest_p999 : float;
  cheat_mean : float;
  cheat_p999 : float;
}

let run_isolation ?(duration = Units.sim_duration_s) ?(seed = 42L) () =
  let cheat_flow = 9 in
  (* Table 1's link with the cheater in the tenth flow's place. *)
  let sc = Scenario.single_link () in
  let honest = List.filter (fun f -> f.Scenario.flow <> cheat_flow) sc.flows in
  let sc = { sc with flows = honest } in
  let run name sched ~police_cheat =
    (* The cheater claims 85 pkt/s but runs at three times that; with
       [police_cheat] it is policed against the declared (85, 50) profile,
       whatever it actually emits. *)
    let cheat = Probe.create () in
    let wire { Experiment.engine; net; prng; _ } =
      Network.install_flow net ~flow:cheat_flow ~ingress:0 ~egress:1
        ~sink:(fun pkt -> Probe.sink cheat ~engine pkt);
      let inject pkt = Network.inject net ~at_switch:0 pkt in
      let emit =
        if police_cheat then
          let tb =
            Ispn_traffic.Token_bucket.create ~rate_bps:85_000.
              ~depth_bits:50_000. ()
          in
          Ispn_traffic.Token_bucket.admit_fn
            (Ispn_traffic.Token_bucket.policer ~engine ~bucket:tb
               ~mode:Ispn_traffic.Token_bucket.Drop ~next:inject)
        else inject
      in
      let source =
        Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng)
          ~flow:cheat_flow ~avg_rate_pps:255. ~emit ()
      in
      source.Ispn_traffic.Source.start
    in
    let honest, _ =
      Experiment.run ~wire ~qdisc_of:(Experiment.qdisc sched) ~duration ~seed sc
    in
    let h = List.hd honest in
    {
      iso_sched = name;
      honest_mean = h.Experiment.mean;
      honest_p999 = h.Experiment.p999;
      cheat_mean = Probe.mean_qdelay cheat;
      cheat_p999 = Probe.percentile_qdelay cheat 99.9;
    }
  in
  [
    run "FIFO (sharing only)" Experiment.Fifo ~police_cheat:false;
    run "WFQ (isolation)" Experiment.Wfq ~police_cheat:false;
    run "FIFO + edge policing (CSZ)" Experiment.Fifo ~police_cheat:true;
  ]

(* --- E5: late-packet discard --------------------------------------------- *)

type discard_result = {
  threshold : float option;
  p999_4hop : float;
  discarded_fraction : float;
}

let run_discard ?(duration = Units.sim_duration_s) ?(seed = 42L) () =
  let run threshold =
    let states = ref [] in
    let qdisc_of _engine ~pool _link =
      let st, q =
        Ispn_sched.Fifo_plus.create ?discard_late_above:threshold ~pool ()
      in
      states := st :: !states;
      q
    in
    let results, info =
      Experiment.run ~qdisc_of ~duration ~seed (Scenario.figure1 ())
    in
    let four_hop =
      List.find (fun (r : Experiment.flow_result) -> r.Experiment.flow = 0) results
    in
    let discarded =
      List.fold_left
        (fun acc st -> acc + Ispn_sched.Fifo_plus.discarded st)
        0 !states
    in
    let delivered =
      info.Experiment.offered - info.Experiment.source_dropped
    in
    {
      threshold;
      p999_4hop = four_hop.Experiment.p999;
      discarded_fraction =
        (if delivered = 0 then 0.
         else float_of_int discarded /. float_of_int delivered);
    }
  in
  [ run None; run (Some 0.030); run (Some 0.015) ]

(* --- E8: load sweep ------------------------------------------------------- *)

type sweep_row = {
  target_utilization : float;
  achieved_utilization : float;
  fifo_p999 : float;
  wfq_p999 : float;
}

let run_load_sweep ?(duration = Units.sim_duration_s) ?(seed = 42L)
    ?(points = [ 0.5; 0.65; 0.8; 0.9 ]) ?(j = 1) () =
  let sample results =
    (List.find
       (fun (r : Experiment.flow_result) -> r.Experiment.flow = 0)
       results)
      .Experiment.p999
  in
  let jobs =
    List.concat_map
      (fun target -> [ (target, Experiment.Fifo); (target, Experiment.Wfq) ])
      points
  in
  let runs =
    Ispn_exec.Pool.map ~j
      (fun (target, sched) ->
        (* Ten flows on a 1000 pkt/s link; ~2% of the offered load dies at
           the edge policer, so aim slightly high. *)
        let avg_rate_pps = target *. 1000. /. 10. /. 0.98 in
        let results, info =
          Experiment.run ~qdisc_of:(Experiment.qdisc sched) ~duration ~seed
            (Scenario.single_link ~avg_rate_pps ())
        in
        (sample results, info))
      jobs
  in
  let rec regroup points runs =
    match (points, runs) with
    | [], [] -> []
    | target :: ps, (fifo_p999, info) :: (wfq_p999, _) :: rs ->
        {
          target_utilization = target;
          achieved_utilization = info.Experiment.utilization.(0);
          fifo_p999;
          wfq_p999;
        }
        :: regroup ps rs
    | _ -> assert false
  in
  regroup points runs

(* --- E9: in-band signaling latency ---------------------------------------- *)

type signaling_row = {
  sig_load : float;
  sig_setups : int;
  sig_mean_ms : float;
  sig_max_ms : float;
}

let run_signaling ?(duration = 120.) ?(seed = 42L)
    ?(loads = [ 0.; 0.5; 0.9 ]) () =
  List.map
    (fun load ->
      let live = Packet.mark () in
      let engine = Engine.create () in
      let prng = Prng.create ~seed in
      let fab = Fabric.chain ~engine ~n_switches:5 () in
      let sig_net = Signaling.deploy ~fabric:fab () in
      (* Background datagram load on every link: on/off sources whose
         average hits the requested fraction. *)
      if load > 0. then
        for link = 0 to 3 do
          let flow = 700 + link in
          Fabric.install_flow fab ~flow ~ingress:link ~egress:(link + 1)
            ~sink:(fun _ -> ());
          let source =
            Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow
              ~avg_rate_pps:(load *. 1000.)
              ~peak_rate_pps:(Fcmp.fmin 2000. (load *. 2000.))
              ~emit:(fun p -> Fabric.inject fab ~at_switch:link p)
              ()
          in
          source.Ispn_traffic.Source.start ()
        done;
      (* One tiny guaranteed setup per second across the whole chain, torn
         down immediately after confirmation so reservations never pile
         up. *)
      let times = Ispn_util.Fvec.create () in
      let next_flow = ref 0 in
      let rec attempt () =
        let flow = !next_flow in
        incr next_flow;
        Signaling.setup sig_net ~flow ~ingress:0 ~egress:4
          (Spec.Guaranteed { clock_rate_bps = 10_000. })
          ~sink:(fun _ -> ())
          ~on_result:(fun result ->
            (match result with
            | Ok est ->
                Ispn_util.Fvec.push times est.Signaling.setup_time;
                Signaling.teardown sig_net ~flow
            | Error _ -> ()));
        if Engine.now engine +. 1. < duration then
          ignore (Engine.schedule_after engine ~delay:1. attempt)
      in
      attempt ();
      Engine.run engine ~until:duration;
      Packet.free_since live;
      let n = Ispn_util.Fvec.length times in
      {
        sig_load = load;
        sig_setups = n;
        sig_mean_ms =
          (if n = 0 then 0.
           else 1000. *. Ispn_util.Fvec.sum times /. float_of_int n);
        sig_max_ms =
          (if n = 0 then 0.
           else 1000. *. Ispn_util.Fvec.max ~init:0. times);
      })
    loads

(* --- Seed robustness ------------------------------------------------------ *)

type seeds_row = {
  seeds_sched : Experiment.sched;
  p999_mean : float;
  p999_min : float;
  p999_max : float;
}

let run_seed_robustness ?(duration = 300.) ?(j = 1) () =
  let seeds = [ 1L; 2L; 3L; 4L; 5L ] in
  let scheds = [ Experiment.Wfq; Experiment.Fifo; Experiment.Fifo_plus ] in
  (* One job per (scheduler, seed) pair — 15 independent simulations. *)
  let tails =
    Ispn_exec.Pool.map ~j
      (fun (sched, seed) ->
        let results, _ = Experiment.run_figure1 ~sched ~duration ~seed () in
        (List.find
           (fun (r : Experiment.flow_result) -> r.Experiment.flow = 0)
           results)
          .Experiment.p999)
      (List.concat_map
         (fun sched -> List.map (fun seed -> (sched, seed)) seeds)
         scheds)
  in
  let per_sched = List.length seeds in
  List.mapi
    (fun i sched ->
      let tails =
        List.filteri
          (fun k _ -> k >= i * per_sched && k < (i + 1) * per_sched)
          tails
      in
      let n = float_of_int (List.length tails) in
      {
        seeds_sched = sched;
        p999_mean = List.fold_left ( +. ) 0. tails /. n;
        p999_min = List.fold_left Fcmp.fmin infinity tails;
        p999_max = List.fold_left Fcmp.fmax neg_infinity tails;
      })
    scheds

(* --- E11: failover under injected faults ---------------------------------- *)

type failover_schedule = F_baseline | F_link_flap | F_control_loss | F_agent_crash

let failover_name = function
  | F_baseline -> "baseline"
  | F_link_flap -> "link-flap"
  | F_control_loss -> "control-loss"
  | F_agent_crash -> "agent-crash"

type failover_flow = { ff_flow : int; ff_requested : string; ff_final : string }

type failover_row = {
  fo_schedule : failover_schedule;
  fo_violation_rate : float;
  fo_lost : int;
  fo_retries : int;
  fo_abandoned : int;
  fo_crashes : int;
  fo_degraded : int;
  fo_reestablished : int;
  fo_reestablish_ms : float;
  fo_flows : failover_flow list;
  fo_series : Ispn_obs.Series.export option;
}

let run_failover ?(duration = 120.) ?(seed = 42L) ?(j = 1) ?(series = false)
    () =
  let schedules = [ F_baseline; F_link_flap; F_control_loss; F_agent_crash ] in
  let run_one schedule =
    let engine = Engine.create () in
    let prng = Prng.create ~seed in
    let fab = Fabric.chain ~engine ~n_switches:5 () in
    let n_links = Fabric.n_links fab in
    let sg =
      Signaling.deploy ~fabric:fab ~setup_timeout:0.02 ~max_retries:6 ()
    in
    (* The sampled timeline: the E11 story is the degradation ladder —
       established/degraded/reestablished counts and per-link drops as the
       fault windows open and close.  (Per-class delay histograms are not
       wired here: the single delay-hook slot feeds the agents' meters,
       which count the class-target violations; the per-hop wait tails
       come off the dequeue taps instead.) *)
    let links = Array.init n_links (Fabric.link fab) in
    let instr = Instr.create ~check:false ~metrics:false ~series in
    Array.iter (Instr.attach_link instr) links;
    Option.iter
      (fun m -> Signaling.register_metrics sg m ())
      (Instr.metrics instr);
    Instr.arm instr engine;
    (* Two watched end-to-end real-time flows over the whole chain... *)
    let watched = [ (0, "guaranteed"); (1, "predicted") ] in
    Signaling.setup sg ~flow:0 ~ingress:0 ~egress:4
      ~own_bucket:{ Spec.rate_bps = 100_000.; depth_bits = 5_000. }
      (Spec.Guaranteed { clock_rate_bps = 300_000. })
      ~sink:(fun _ -> ())
      ~on_result:(function
        | Error _ -> ()
        | Ok est ->
            let src =
              Ispn_traffic.Cbr.create ~engine ~flow:0 ~rate_pps:100.
                ~emit:est.Signaling.emit ()
            in
            src.Ispn_traffic.Source.start ());
    Signaling.setup sg ~flow:1 ~ingress:0 ~egress:4
      (Spec.Predicted
         {
           bucket = { Spec.rate_bps = 85_000.; depth_bits = 20_000. };
           target_delay = 0.256;
           target_loss = 0.01;
         })
      ~sink:(fun _ -> ())
      ~on_result:(function
        | Error _ -> ()
        | Ok est ->
            let src =
              Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng)
                ~flow:1 ~avg_rate_pps:85. ~emit:est.Signaling.emit ()
            in
            src.Ispn_traffic.Source.start ());
    (* ... one single-hop predicted flow per link, and datagram background
       load, so every link carries all three service tiers. *)
    for link = 0 to n_links - 1 do
      Signaling.setup sg ~flow:(10 + link) ~ingress:link ~egress:(link + 1)
        (Spec.Predicted
           {
             bucket = { Spec.rate_bps = 85_000.; depth_bits = 20_000. };
             target_delay = 0.064;
             target_loss = 0.01;
           })
        ~sink:(fun _ -> ())
        ~on_result:(function
          | Error _ -> ()
          | Ok est ->
              let src =
                Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng)
                  ~flow:(10 + link) ~avg_rate_pps:85.
                  ~emit:est.Signaling.emit ()
              in
              src.Ispn_traffic.Source.start ());
      let flow = 700 + link in
      Fabric.install_flow fab ~flow ~ingress:link ~egress:(link + 1)
        ~sink:(fun _ -> ());
      let src =
        Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow
          ~avg_rate_pps:350.
          ~emit:(fun p -> Fabric.inject fab ~at_switch:link p)
          ()
      in
      src.Ispn_traffic.Source.start ()
    done;
    (* Short-lived probe setups across the chain keep the control plane
       exercised, so outages hit setups in flight (timeout -> retry). *)
    let next_probe = ref 1000 in
    let rec probe () =
      let flow = !next_probe in
      incr next_probe;
      Signaling.setup sg ~flow ~ingress:0 ~egress:4
        (Spec.Guaranteed { clock_rate_bps = 10_000. })
        ~sink:(fun _ -> ())
        ~on_result:(function
          | Ok _ -> Signaling.teardown sg ~flow
          | Error _ -> ());
      if Engine.now engine +. 2. < duration then
        ignore (Engine.schedule_after engine ~delay:2. probe)
    in
    probe ();
    (* The fault plan, scaled to the run length; all four schedules target
       mid-path link 1 / switch 1. *)
    let plan =
      match schedule with
      | F_baseline -> Ispn_faults.Plan.none
      | F_link_flap ->
          [
            Ispn_faults.Plan.Link_down
              { link = 1; at = 0.3 *. duration; duration = 3. };
            Ispn_faults.Plan.Link_down
              { link = 1; at = 0.6 *. duration; duration = 1. };
          ]
      | F_control_loss ->
          [
            Ispn_faults.Plan.Corrupt
              {
                link = 1;
                from_ = 0.2 *. duration;
                until = 0.8 *. duration;
                per_packet = 0.35;
              };
          ]
      | F_agent_crash ->
          [ Ispn_faults.Plan.Agent_crash { switch = 1; at = 0.4 *. duration } ]
    in
    let _stats =
      Ispn_faults.Inject.apply ~engine ~links
        ~on_agent_crash:(fun ~switch -> Signaling.crash_agent sg ~switch)
        ~corrupt_seed:(Int64.add seed 77L) plan
    in
    (* After the crash wiped switch 1's book, a newcomer grabs most of the
       freed capacity before the victims' re-setup lands — forcing the
       degradation ladder to actually engage on re-admission. *)
    (match schedule with
    | F_agent_crash ->
        ignore
          (Engine.schedule engine ~at:((0.4 *. duration) +. 0.001) (fun () ->
               Signaling.setup sg ~flow:90 ~ingress:1 ~egress:2
                 (Spec.Guaranteed { clock_rate_bps = 500_000. })
                 ~sink:(fun _ -> ())
                 ~on_result:(fun _ -> ())))
    | F_baseline | F_link_flap | F_control_loss -> ());
    Engine.run engine ~until:duration;
    let lost = ref 0 in
    for link = 0 to n_links - 1 do
      lost := !lost + Link.dropped (Fabric.link fab link)
    done;
    {
      fo_schedule = schedule;
      fo_violation_rate =
        violation_rate
          (List.init n_links (fun link ->
               Controller.meter (Signaling.controller sg ~link) ~link:0));
      fo_lost = !lost;
      fo_retries = Signaling.retries sg;
      fo_abandoned = Signaling.abandoned_count sg;
      fo_crashes = Signaling.crash_count sg;
      fo_degraded = Signaling.degraded_count sg;
      fo_reestablished = Signaling.reestablished_count sg;
      fo_reestablish_ms = 1000. *. Signaling.mean_reestablish_latency sg;
      fo_flows =
        List.map
          (fun (flow, requested) ->
            {
              ff_flow = flow;
              ff_requested = requested;
              ff_final =
                (match Signaling.service_level sg ~flow with
                | Some l -> Signaling.level_name l
                | None -> "gone");
            })
          watched;
      fo_series = (Instr.finish instr).timeline;
    }
  in
  Ispn_exec.Pool.map ~j run_one schedules

(* --- E12: flight-recorder trace / per-hop attribution -------------------- *)

type trace_experiment = T_table1 | T_table2 | T_table3

let trace_experiment_name = function
  | T_table1 -> "table1"
  | T_table2 -> "table2"
  | T_table3 -> "table3"

type trace_hop = { th_link : int; th_queueing : float; th_transmission : float }

type trace_row = {
  tr_flow : int;
  tr_seq : int;
  tr_hops : trace_hop list;
  tr_queueing : float;
  tr_reported : float;
}

type trace_result = {
  tre_experiment : trace_experiment;
  tre_events : int;
  tre_capacity : int;
  tre_delivered : int;
  tre_complete : int;
  tre_rows : trace_row list;
}

let run_trace ?(experiment = T_table2) ?(worst = 5)
    ?(recorder = Ispn_obs.Recorder.create ~capacity:(1 lsl 20) ())
    ?(duration = Units.sim_duration_s) ?(seed = 42L) () =
  let instr = Instr.of_handles ~recorder () in
  let run sched scenario =
    ignore
      (Experiment.run ~instr ~qdisc_of:(Experiment.qdisc sched) ~duration
         ~seed scenario)
  in
  (match experiment with
  | T_table1 -> run Experiment.Fifo (Scenario.single_link ())
  | T_table2 -> run Experiment.Fifo_plus (Scenario.figure1 ())
  | T_table3 -> ignore (Experiment.run_table3 ~duration ~seed ~instr ()));
  ignore (Instr.finish instr);
  let bds = Ispn_obs.Attrib.breakdowns recorder in
  let complete =
    List.filter (fun b -> b.Ispn_obs.Attrib.bd_complete) bds
  in
  let rows =
    List.map
      (fun b ->
        let open Ispn_obs.Attrib in
        {
          tr_flow = b.bd_flow;
          tr_seq = b.bd_seq;
          tr_hops =
            List.map
              (fun h ->
                {
                  th_link = h.hop_link;
                  th_queueing = to_units h.queueing;
                  th_transmission = to_units h.transmission;
                })
              b.bd_hops;
          tr_queueing = to_units b.bd_queueing;
          tr_reported = to_units b.bd_reported;
        })
      (Ispn_obs.Attrib.worst ~n:worst recorder)
  in
  {
    tre_experiment = experiment;
    tre_events = Ispn_obs.Recorder.length recorder;
    tre_capacity = Ispn_obs.Recorder.capacity recorder;
    tre_delivered = List.length bds;
    tre_complete = List.length complete;
    tre_rows = rows;
  }

(* --- E13: session churn under soft-state signaling ------------------------ *)

type churn_scenario = C_clean | C_lossy_teardown | C_agent_crash | C_link_flap

let churn_name = function
  | C_clean -> "clean"
  | C_lossy_teardown -> "lossy-teardown"
  | C_agent_crash -> "agent-crash"
  | C_link_flap -> "link-flap"

type churn_row = {
  ch_scenario : churn_scenario;
  ch_offered : int;
  ch_established : int;
  ch_refused : int;
  ch_blocking : float;
  ch_departed : int;
  ch_active_end : int;
  ch_expired : int;
  ch_retries : int;
  ch_abandoned : int;
  ch_signaling_pps : float;
  ch_refresh_share : float;
  ch_slot_hwm : int;
  ch_recycled : int;
  ch_leaked : int;
  ch_check : Ispn_check.Audit.summary option;
  ch_series : Ispn_obs.Series.export option;
}

(* One open-loop session's control state in the workload harness; the slot
   (= flow id) is recycled through an [Idpool] once every agent's soft
   state has provably forgotten the session. *)
type churn_session = {
  mutable cs_st : [ `Pending | `Active | `Gone ];
  mutable cs_wants_out : bool;  (* holding ended while setup in flight *)
  mutable cs_departed_at : float;
  mutable cs_src : Ispn_traffic.Source.t option;
}

let run_churn ?(duration = 120.) ?(seed = 42L) ?(j = 1) ?(check = false)
    ?(series = false) () =
  let lambda = 420. in
  let scenarios = [ C_clean; C_lossy_teardown; C_agent_crash; C_link_flap ] in
  let refresh_interval = 3.0 and lifetime_epochs = 3 in
  let lifetime = refresh_interval *. float_of_int lifetime_epochs in
  (* A departed session's residue anywhere is expired at most one sweep
     past its last stamp's lifetime; only then may the slot be reused, or
     a recycled flow id could collide with its predecessor's reservations. *)
  let reclaim = lifetime +. (2.1 *. refresh_interval) in
  let run_one scenario =
    let engine = Engine.create () in
    let prng = Prng.create ~seed in
    let fab = Fabric.chain ~engine ~n_switches:5 () in
    let n_links = Fabric.n_links fab in
    let sg =
      Signaling.deploy ~fabric:fab ~setup_timeout:0.02 ~max_retries:4
        ~refresh_interval ~lifetime_epochs ()
    in
    let pool = Ispn_util.Idpool.create ~capacity:1024 () in
    (* The audit adds the agents' books and the slot pool to its leak
       checks; the series adds the signaling counters and the slot pool,
       whose expiry-reclaim wave is E13's headline dynamic. *)
    let links = Array.init n_links (Fabric.link fab) in
    let instr = Instr.create ~check ~metrics:false ~series in
    Array.iter (Instr.attach_link instr) links;
    Option.iter
      (fun a ->
        Signaling.register_audit sg a;
        Ispn_check.Audit.register_flow_state a ~label:"flow-slots"
          ~admitted:(fun () -> Ispn_util.Idpool.takes pool)
          ~released:(fun () -> Ispn_util.Idpool.releases pool)
          ~live:(fun () -> Ispn_util.Idpool.in_use pool)
          ~bad:(fun () -> Ispn_util.Idpool.bad_releases pool)
          ())
      (Instr.audit instr);
    Option.iter
      (fun m ->
        Signaling.register_metrics sg m ();
        let flows n f = Ispn_obs.Metrics.register_int m ("flows." ^ n) f in
        flows "in_use" (fun () -> Ispn_util.Idpool.in_use pool);
        flows "hwm" (fun () -> Ispn_util.Idpool.hwm pool);
        flows "takes" (fun () -> Ispn_util.Idpool.takes pool))
      (Instr.metrics instr);
    Instr.arm instr engine;
    (* Steady datagram background on every link, so signaling and data
       always compete for the wire (ids far above the recycled slot range). *)
    for link = 0 to n_links - 1 do
      let flow = 910_000 + link in
      Fabric.install_flow fab ~flow ~ingress:link ~egress:(link + 1)
        ~sink:Packet.free;
      let src =
        Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow
          ~avg_rate_pps:200.
          ~emit:(fun p -> Fabric.inject fab ~at_switch:link p)
          ()
      in
      src.Ispn_traffic.Source.start ()
    done;
    let sessions : (int, churn_session) Hashtbl.t = Hashtbl.create 4096 in
    let offered = ref 0 in
    let release_later flow =
      ignore
        (Engine.schedule_after engine ~delay:reclaim (fun () ->
             Ispn_util.Idpool.release pool ~id:flow))
    in
    let depart s flow =
      (match s.cs_src with
      | Some src -> src.Ispn_traffic.Source.stop ()
      | None -> ());
      s.cs_src <- None;
      s.cs_st <- `Gone;
      s.cs_departed_at <- Engine.now engine;
      Signaling.depart sg ~flow;
      release_later flow
    in
    (* The open-loop workload: Poisson arrivals, Pareto holding times, a
       guaranteed / predicted / datagram service mix, uniform spans on the
       chain.  Every random draw comes from the one arrival-ordered PRNG,
       so the workload is identical across scenarios and [-j] widths. *)
    let rec arrival () =
      incr offered;
      let flow = Ispn_util.Idpool.take pool in
      let ingress = Prng.int prng ~bound:(n_links - 1 + 1) in
      let egress = ingress + 1 + Prng.int prng ~bound:(n_links - ingress) in
      let u = Prng.float prng in
      let spec, own_bucket =
        if u < 0.15 then (
          let rate = Dist.uniform prng ~lo:2_000. ~hi:20_000. in
          ( Spec.Guaranteed { clock_rate_bps = rate },
            Some { Spec.rate_bps = rate; depth_bits = 4_000. } ))
        else if u < 0.40 then
          ( Spec.Predicted
              {
                bucket =
                  {
                    Spec.rate_bps = Dist.uniform prng ~lo:5_000. ~hi:30_000.;
                    depth_bits = 10_000.;
                  };
                target_delay = 0.256;
                target_loss = 0.01;
              },
            None )
        else (Spec.Datagram, None)
      in
      let holding = Dist.pareto prng ~shape:1.5 ~scale:(2. /. 3.) in
      let with_source = Dist.bernoulli prng ~p:0.01 in
      let s =
        { cs_st = `Pending; cs_wants_out = false; cs_departed_at = 0.;
          cs_src = None }
      in
      Hashtbl.replace sessions flow s;
      Signaling.setup sg ~flow ~ingress ~egress ?own_bucket spec
        ~sink:Packet.free
        ~on_result:(function
          | Error _ ->
              (* Refusals roll back synchronously: the slot has no residue
                 anywhere, but it still waits out the quarantine. *)
              s.cs_st <- `Gone;
              s.cs_departed_at <- Engine.now engine;
              release_later flow
          | Ok est ->
              if s.cs_wants_out then depart s flow
              else begin
                s.cs_st <- `Active;
                if with_source then begin
                  let src =
                    Ispn_traffic.Cbr.create ~engine ~flow ~rate_pps:50.
                      ~emit:est.Signaling.emit ()
                  in
                  s.cs_src <- Some src;
                  src.Ispn_traffic.Source.start ()
                end
              end);
      ignore
        (Engine.schedule_after engine ~delay:holding (fun () ->
             match s.cs_st with
             | `Pending -> s.cs_wants_out <- true
             | `Active -> depart s flow
             | `Gone -> ()));
      let gap = Dist.exponential prng ~mean:(1. /. lambda) in
      if Engine.now engine +. gap < duration then
        ignore (Engine.schedule_after engine ~delay:gap arrival)
    in
    ignore
      (Engine.schedule_after engine
         ~delay:(Dist.exponential prng ~mean:(1. /. lambda))
         arrival);
    (* Faults, scaled to the run: the lossy window eats teardown and
       refresh legs mid-path (the soft-state reclaim path), the crashes
       wipe whole agents, the flap stresses setups in flight. *)
    let plan =
      match scenario with
      | C_clean -> Ispn_faults.Plan.none
      | C_lossy_teardown ->
          [
            Ispn_faults.Plan.Corrupt
              {
                link = 1;
                from_ = 0.15 *. duration;
                until = 0.85 *. duration;
                per_packet = 0.3;
              };
            Ispn_faults.Plan.Corrupt
              {
                link = 2;
                from_ = 0.3 *. duration;
                until = 0.7 *. duration;
                per_packet = 0.3;
              };
          ]
      | C_agent_crash ->
          [
            Ispn_faults.Plan.Agent_crash { switch = 1; at = 0.4 *. duration };
            Ispn_faults.Plan.Agent_crash { switch = 2; at = 0.7 *. duration };
          ]
      | C_link_flap ->
          [
            Ispn_faults.Plan.Link_down
              { link = 2; at = 0.3 *. duration; duration = 3. };
            Ispn_faults.Plan.Link_down
              { link = 2; at = 0.65 *. duration; duration = 1. };
          ]
    in
    let _stats =
      Ispn_faults.Inject.apply ~engine ~links
        ~on_agent_crash:(fun ~switch -> Signaling.crash_agent sg ~switch)
        ~corrupt_seed:(Int64.add seed 99L) plan
    in
    Engine.run engine ~until:duration;
    (* The leak sweep: a reservation still held anywhere for a session that
       departed more than the reclaim horizon ago was neither torn down nor
       expired — exactly what soft state promises cannot happen. *)
    let now = Engine.now engine in
    let leaked = ref 0 in
    for link = 0 to n_links - 1 do
      List.iter
        (fun flow ->
          match Hashtbl.find_opt sessions flow with
          | Some s
            when s.cs_st = `Gone && now -. s.cs_departed_at > reclaim ->
              incr leaked
          | Some _ | None -> ())
        (Controller.live_flows (Signaling.controller sg ~link))
    done;
    let established = Signaling.total_established sg in
    let refused = Signaling.refused_count sg in
    let decisions = established + refused in
    let ctrl_pkts = Signaling.control_packets_sent sg in
    let obs = Instr.finish instr in
    {
      ch_scenario = scenario;
      ch_offered = !offered;
      ch_established = established;
      ch_refused = refused;
      ch_blocking =
        (if decisions = 0 then 0.
         else float_of_int refused /. float_of_int decisions);
      ch_departed = Signaling.teardown_count sg;
      ch_active_end = Signaling.established_count sg;
      ch_expired = Signaling.expired_count sg;
      ch_retries = Signaling.retries sg;
      ch_abandoned = Signaling.abandoned_count sg;
      ch_signaling_pps = float_of_int ctrl_pkts /. duration;
      ch_refresh_share =
        (if ctrl_pkts = 0 then 0.
         else
           float_of_int (Signaling.refresh_packets_sent sg)
           /. float_of_int ctrl_pkts);
      ch_slot_hwm = Ispn_util.Idpool.hwm pool;
      ch_recycled = Ispn_util.Idpool.takes pool - Ispn_util.Idpool.hwm pool;
      ch_leaked = !leaked;
      ch_check = obs.Instr.audit;
      ch_series = obs.timeline;
    }
  in
  Ispn_exec.Pool.map ~j run_one scenarios

(* --- E14: sharded parking-lot at scale ------------------------------------ *)

type scale_row = {
  sc_span : int;
  sc_flows : int;
  sc_delivered : int;
  sc_mean_delay : float;
  sc_max_delay : float;
  sc_mean_qdelay : float;
}

type scale_report = {
  sc_rows : scale_row list;
  sc_switches : int;
  sc_links : int;
  sc_flow_count : int;
  sc_delivered_total : int;
  sc_sent : int;
  sc_dropped : int;
  sc_shards : int;
  sc_windows : int;
  sc_lookahead : float;
  sc_cut_links : int;
  sc_exchanged : int;
  sc_fired : int;
  sc_check : Ispn_check.Audit.summary option;
  sc_metrics : Ispn_obs.Metrics.snapshot option;
  sc_series : Ispn_obs.Series.export option;
}

let run_scale ?(duration = 60.) ?(seed = 42L) ?(shards = 1) ?(flows = 2000)
    ?(check = false) ?(metrics = false) ?(series = false) () =
  let regions = 4 and per_region = 5 and avg_rate_pps = 8. in
  if shards < 1 || shards > regions then
    invalid_arg "run_scale: shards must be in [1, regions]";
  if flows < 1 then invalid_arg "run_scale: need >= 1 flow";
  let n_switches = regions * per_region in
  (* Contiguous blocks of regions per shard: the only cut links are the
     backbone links between regions owned by different shards. *)
  let shard_of =
    Array.init n_switches (fun s -> s / per_region * shards / regions)
  in
  let link_rate_bps = 10. *. Units.link_rate_bps in
  (* A parking-lot chain: switch i <-> i+1, duplex.  Backbone links (the
     region boundaries) carry ~10 ms of propagation, access links ~1 ms;
     every link gets a distinct delay (a small index-proportional skew) so
     no two paths can produce exact-float arrival ties — the determinism
     contract's requirement (Shardnet doc). *)
  let link_specs =
    Array.init
      (2 * (n_switches - 1))
      (fun li ->
        let i = li / 2 in
        let backbone = (i + 1) mod per_region = 0 in
        let base = if backbone then 10e-3 else 1e-3 in
        let prop = base *. (1. +. (0.003 *. float_of_int li)) in
        let src, dst = if li land 1 = 0 then (i, i + 1) else (i + 1, i) in
        {
          Shardnet.l_src = src;
          l_dst = dst;
          l_rate_bps = link_rate_bps;
          l_prop_delay = prop;
          l_qdisc =
            (fun () ->
              let pool = Qdisc.pool ~capacity:Units.buffer_packets in
              Ispn_sched.Fifo.create ~pool ());
        })
  in
  (* Per-flow PRNG streams split off the master on this domain, in flow
     order, before any shard starts — shard-count-independent. *)
  let prng = Prng.create ~seed in
  let flow_src = Array.make flows 0 in
  let flow_dst = Array.make flows 0 in
  let flow_specs =
    Array.init flows (fun f ->
        let fp = Prng.split prng in
        let src = Prng.int prng ~bound:n_switches in
        let d = Prng.int prng ~bound:(n_switches - 1) in
        let dst = if d >= src then d + 1 else d in
        flow_src.(f) <- src;
        flow_dst.(f) <- dst;
        {
          Shardnet.f_src = src;
          f_dst = dst;
          f_driver =
            (fun engine emit ->
              let source =
                Ispn_traffic.Onoff.create ~engine ~prng:fp ~flow:f
                  ~avg_rate_pps ~packet_bits:Units.packet_bits ~emit ()
              in
              source.Ispn_traffic.Source.start ());
        })
  in
  let spec =
    {
      Shardnet.n_switches;
      n_shards = shards;
      shard_of;
      links = link_specs;
      flows = flow_specs;
    }
  in
  let res, obs =
    Instr.run_sharded ~check ~metrics ~series ~until:duration spec
  in
  (* Rows bucket flows by regions crossed; every field is a sum or max of
     shard-count-independent per-flow results, so stdout stays identical
     at every [shards]. *)
  let pt = Units.packet_times ~link_rate_bps ~packet_bits:Units.packet_bits in
  let rows =
    List.init regions (fun span ->
        let fs = ref 0
        and del = ref 0
        and dsum = ref 0.
        and dmax = ref 0.
        and qsum = ref 0. in
        for f = 0 to flows - 1 do
          let s =
            abs ((flow_dst.(f) / per_region) - (flow_src.(f) / per_region))
          in
          if s = span then begin
            incr fs;
            let st = res.Shardnet.r_flows.(f) in
            del := !del + st.Shardnet.f_delivered;
            dsum := !dsum +. st.Shardnet.f_delay_sum;
            if st.Shardnet.f_delay_max > !dmax then
              dmax := st.Shardnet.f_delay_max;
            qsum := !qsum +. st.Shardnet.f_qdelay_sum
          end
        done;
        {
          sc_span = span;
          sc_flows = !fs;
          sc_delivered = !del;
          sc_mean_delay =
            (if !del = 0 then 0. else pt (!dsum /. float_of_int !del));
          sc_max_delay = pt !dmax;
          sc_mean_qdelay =
            (if !del = 0 then 0. else pt (!qsum /. float_of_int !del));
        })
  in
  let sent = ref 0 and dropped = ref 0 in
  Array.iter
    (fun (k : Shardnet.link_stat) ->
      sent := !sent + k.Shardnet.k_sent;
      dropped := !dropped + k.Shardnet.k_dropped)
    res.Shardnet.r_links;
  let delivered_total =
    Array.fold_left
      (fun acc (s : Shardnet.flow_stat) -> acc + s.Shardnet.f_delivered)
      0 res.Shardnet.r_flows
  in
  {
    sc_rows = rows;
    sc_switches = n_switches;
    sc_links = Array.length link_specs;
    sc_flow_count = flows;
    sc_delivered_total = delivered_total;
    sc_sent = !sent;
    sc_dropped = !dropped;
    sc_shards = res.Shardnet.r_shards;
    sc_windows = res.Shardnet.r_windows;
    sc_lookahead = res.Shardnet.r_lookahead;
    sc_cut_links = res.Shardnet.r_cut_links;
    sc_exchanged = res.Shardnet.r_drained;
    sc_fired = res.Shardnet.r_fired;
    sc_check = obs.Instr.audit;
    sc_metrics = obs.Instr.snapshot;
    sc_series = obs.Instr.timeline;
  }
