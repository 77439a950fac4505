open Ispn_sim
module Units = Ispn_util.Units
module Prng = Ispn_util.Prng

type sched = Fifo | Wfq | Fifo_plus

let sched_name = function
  | Fifo -> "FIFO"
  | Wfq -> "WFQ"
  | Fifo_plus -> "FIFO+"

type flow_result = {
  flow : int;
  hops : int;
  received : int;
  mean : float;
  p999 : float;
  max : float;
}

type run_info = {
  duration : float;
  utilization : float array;
  offered : int;
  source_dropped : int;
  net_dropped : int;
}

let qdisc_for ?metrics ?label sched ~pool ~link_rate_bps =
  match sched with
  | Fifo -> Ispn_sched.Fifo.create ~pool ()
  | Wfq -> Ispn_sched.Wfq.create_equal ?metrics ?label ~pool ~link_rate_bps ()
  | Fifo_plus -> snd (Ispn_sched.Fifo_plus.create ?metrics ?label ~pool ())

let register_arena_metrics = Instr.register_arena_metrics

(* One real-time flow: on/off source -> (A, 50) policer -> ingress switch,
   probe at the egress switch. *)
type rt_flow = {
  spec : Scenario.flow_spec;
  source : Ispn_traffic.Source.t;
  policer : Ispn_traffic.Token_bucket.policer;
  probe : Probe.t;
}

let attach_rt_flow ?audit net prng ~spec ~avg_rate_pps =
  let open Scenario in
  let engine = Network.engine net in
  let probe = Probe.create () in
  Network.install_flow net ~flow:spec.flow ~ingress:spec.ingress
    ~egress:spec.egress
    ~sink:(fun pkt -> Probe.sink probe ~engine pkt);
  let rate_bps = avg_rate_pps *. float_of_int Units.packet_bits in
  let depth_bits =
    Scenario.token_bucket_depth_packets *. float_of_int Units.packet_bits
  in
  (match audit with
  | Some a when spec.ingress < spec.egress ->
      (* The policed stream first queues on link [ingress]; audit its
         conformance there. *)
      Ispn_check.Audit.register_policed_flow a ~flow:spec.flow
        ~link:spec.ingress ~rate_bps ~depth_bits
  | _ -> ());
  let bucket = Ispn_traffic.Token_bucket.create ~rate_bps ~depth_bits () in
  let policer =
    Ispn_traffic.Token_bucket.policer ~engine ~bucket
      ~mode:Ispn_traffic.Token_bucket.Drop
      ~next:(fun pkt -> Network.inject net ~at_switch:spec.ingress pkt)
  in
  let source =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow:spec.flow
      ~avg_rate_pps
      ~emit:(Ispn_traffic.Token_bucket.admit_fn policer)
      ()
  in
  { spec; source; policer; probe }

let result_of_rt_flow rt =
  let p = rt.probe in
  {
    flow = rt.spec.Scenario.flow;
    hops = Scenario.hops rt.spec;
    received = Probe.received p;
    mean = Probe.mean_qdelay p;
    p999 =
      (if Probe.received p = 0 then 0. else Probe.percentile_qdelay p 99.9);
    max = Probe.max_qdelay p;
  }

let info_of_run net rt_flows ~duration =
  let n_links = Network.n_links net in
  {
    duration;
    utilization =
      Array.init n_links (fun i ->
          Network.utilization net ~link:i ~elapsed:duration);
    offered =
      List.fold_left
        (fun acc rt -> acc + Ispn_traffic.Token_bucket.offered rt.policer)
        0 rt_flows;
    source_dropped =
      List.fold_left
        (fun acc rt -> acc + Ispn_traffic.Token_bucket.dropped rt.policer)
        0 rt_flows;
    net_dropped = Network.total_dropped net;
  }

(* A chain of [Units.link_rate_bps] links, each link and its
   [Units.buffer_packets] pool wired to [instr]. *)
let chain instr ~engine ?recorder ~n_switches qdisc_of =
  let net =
    Network.chain ~engine ~n_switches ~rate_bps:Units.link_rate_bps ?recorder
      ~qdisc_of:(fun link ->
        let pool = Qdisc.pool ~capacity:Units.buffer_packets in
        Instr.register_pool instr ~link pool;
        qdisc_of ~pool link)
      ()
  in
  for i = 0 to Network.n_links net - 1 do
    Instr.attach_link instr (Network.link net i)
  done;
  net

let run_chain_custom ?metrics ?recorder ?audit ?series ?hist ~qdisc_of
    ~n_switches ~specs ~avg_rate_pps ~duration ~seed () =
  let instr = Instr.of_handles ?metrics ?audit ?series ?hist () in
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let net = chain instr ~engine ?recorder ~n_switches (qdisc_of engine) in
  let rt_flows =
    List.map
      (fun spec -> attach_rt_flow ?audit net prng ~spec ~avg_rate_pps)
      specs
  in
  Instr.arm instr engine;
  List.iter (fun rt -> rt.source.Ispn_traffic.Source.start ()) rt_flows;
  Engine.run engine ~until:duration;
  (List.map result_of_rt_flow rt_flows, info_of_run net rt_flows ~duration)

let run_chain ?metrics ?recorder ?audit ?series ?hist ~sched ~n_switches
    ~specs ~avg_rate_pps ~duration ~seed () =
  let qdisc_of _engine ~pool link =
    qdisc_for ?metrics ~label:(string_of_int link) sched ~pool
      ~link_rate_bps:Units.link_rate_bps
  in
  run_chain_custom ?metrics ?recorder ?audit ?series ?hist ~qdisc_of
    ~n_switches ~specs ~avg_rate_pps ~duration ~seed ()

let run_figure1_custom ~qdisc_of ?(avg_rate_pps = Scenario.default_avg_rate_pps)
    ?(duration = Units.sim_duration_s) ?(seed = 42L) ?metrics ?recorder ?audit
    ?series ?hist () =
  run_chain_custom ?metrics ?recorder ?audit ?series ?hist ~qdisc_of
    ~n_switches:Scenario.figure1_n_switches ~specs:Scenario.figure1_flows
    ~avg_rate_pps ~duration ~seed ()

let run_single_link ~sched ?(n_flows = 10)
    ?(avg_rate_pps = Scenario.default_avg_rate_pps)
    ?(duration = Units.sim_duration_s) ?(seed = 42L) ?metrics ?recorder ?audit
    ?series ?hist () =
  let specs =
    List.init n_flows (fun i -> { Scenario.flow = i; ingress = 0; egress = 1 })
  in
  run_chain ?metrics ?recorder ?audit ?series ?hist ~sched ~n_switches:2
    ~specs ~avg_rate_pps ~duration ~seed ()

let run_figure1 ~sched ?(avg_rate_pps = Scenario.default_avg_rate_pps)
    ?(duration = Units.sim_duration_s) ?(seed = 42L) ?metrics ?recorder ?audit
    ?series ?hist () =
  run_chain ?metrics ?recorder ?audit ?series ?hist ~sched
    ~n_switches:Scenario.figure1_n_switches ~specs:Scenario.figure1_flows
    ~avg_rate_pps ~duration ~seed ()

(* --- Table 3 ------------------------------------------------------------ *)

type t3_row = {
  label : string;
  t3_flow : int;
  t3_hops : int;
  t3_mean : float;
  t3_p999 : float;
  t3_max : float;
  pg_bound : float option;
}

type tcp_result = {
  tcp_flow : int;
  goodput_bps : float;
  loss_rate : float;
  delivered : int;
  segments_sent : int;
}

type t3_result = {
  rows : t3_row list;
  all_flows : flow_result list;
  tcp : tcp_result list;
  info : run_info;
  realtime_utilization : float array;
  datagram_drop_rate : float;
}

let run_table3 ?(avg_rate_pps = Scenario.default_avg_rate_pps)
    ?(duration = Units.sim_duration_s) ?(seed = 42L) ?discard_late_above
    ?metrics ?recorder ?audit ?series ?hist () =
  let open Scenario in
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let link_rate_bps = Units.link_rate_bps in
  let packet_bits_f = float_of_int Units.packet_bits in
  let peak_rate_bps = 2. *. avg_rate_pps *. packet_bits_f in
  let avg_rate_bps = avg_rate_pps *. packet_bits_f in
  let instr = Instr.of_handles ?metrics ?audit ?series ?hist () in
  (* One CSZ scheduler per link; keep the states for registration and
     accounting. *)
  let states = Array.make (figure1_n_switches - 1) None in
  let net =
    chain instr ~engine ?recorder ~n_switches:figure1_n_switches
      (fun ~pool i ->
        let config =
          { Csz_sched.default_config with link_rate_bps; discard_late_above }
        in
        let st, qdisc =
          Csz_sched.create ~config ?metrics ~label:(string_of_int i) ~pool ()
        in
        states.(i) <- Some st;
        qdisc)
  in
  (* A guaranteed flow's PG bound in seconds.  At clock rate = peak the
     effective bucket depth is one packet (the source can never get ahead
     of its clock). *)
  let pg_bound_s flow ~hops =
    let bound rate_bps depth_bits =
      let bucket = { Ispn_admission.Spec.rate_bps; depth_bits } in
      Some
        (Ispn_admission.Bounds.pg_bound ~bucket ~clock_rate_bps:rate_bps ~hops
           ())
    in
    match table3_class_of flow with
    | Guaranteed_peak -> bound peak_rate_bps packet_bits_f
    | Guaranteed_avg ->
        bound avg_rate_bps (token_bucket_depth_packets *. packet_bits_f)
    | Predicted_high | Predicted_low -> None
  in
  (* Per-packet PG-bound detection for every guaranteed flow, checked on
     delivery at its egress link. *)
  Option.iter
    (fun a ->
      List.iter
        (fun spec ->
          Option.iter
            (fun bound_s ->
              Ispn_check.Audit.register_delay_bound a ~kind:Ispn_check.Audit.Pg
                ~flow:spec.flow ~link:(spec.egress - 1) ~bound_s)
            (pg_bound_s spec.flow ~hops:(Scenario.hops spec)))
        figure1_flows)
    audit;
  let state i = Option.get states.(i) in
  (* Per-class delay tails, aggregated across links: one channel per
     predicted class plus the datagram class, fed by every link's
     scheduler delay hook.  Guaranteed packets reach the hook with
     [cls = -1] and are skipped: their tail is the per-flow WFQ story,
     covered by the PG bound. *)
  Option.iter
    (fun h ->
      let n_cls = Csz_sched.datagram_class (state 0) + 1 in
      let chans =
        Array.init n_cls (fun c ->
            Ispn_obs.Hist.channel h (Printf.sprintf "csz.class.%d.delay" c))
      in
      for i = 0 to Network.n_links net - 1 do
        Csz_sched.set_delay_hook (state i) (fun ~cls delay ->
            if cls >= 0 then Ispn_util.Loghist.add chans.(cls) delay)
      done)
    hist;
  (* Register every real-time flow at each link on its path. *)
  List.iter
    (fun spec ->
      for i = spec.ingress to spec.egress - 1 do
        match table3_class_of spec.flow with
        | Guaranteed_peak ->
            Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:peak_rate_bps
        | Guaranteed_avg ->
            Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:avg_rate_bps
        | Predicted_high -> Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:0
        | Predicted_low -> Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:1
      done)
    figure1_flows;
  let rt_flows =
    List.map
      (fun spec -> attach_rt_flow ?audit net prng ~spec ~avg_rate_pps)
      figure1_flows
  in
  (* The two TCP connections, one per half of the chain; unregistered flows
     land in the datagram class. *)
  let tcps =
    List.mapi
      (fun i (ingress, egress) ->
        let flow = 100 + i in
        let tcp =
          Ispn_transport.Tcp.create ~engine ~flow
            ~send:(fun pkt -> Network.inject net ~at_switch:ingress pkt)
            ()
        in
        Network.install_flow net ~flow ~ingress ~egress
          ~sink:(fun pkt -> Ispn_transport.Tcp.receive tcp pkt);
        (flow, tcp))
      table3_tcp_paths
  in
  Instr.arm instr engine;
  List.iter (fun rt -> rt.source.Ispn_traffic.Source.start ()) rt_flows;
  List.iter (fun (_, tcp) -> Ispn_transport.Tcp.start tcp) tcps;
  Engine.run engine ~until:duration;
  let all_flows = List.map result_of_rt_flow rt_flows in
  let info = info_of_run net rt_flows ~duration in
  let find_flow f =
    List.find (fun (r : flow_result) -> r.flow = f) all_flows
  in
  let rows =
    List.map
      (fun (label, f) ->
        let r = find_flow f in
        let pg_bound =
          Option.map
            (Units.packet_times ~link_rate_bps ~packet_bits:Units.packet_bits)
            (pg_bound_s f ~hops:r.hops)
        in
        {
          label;
          t3_flow = f;
          t3_hops = r.hops;
          t3_mean = r.mean;
          t3_p999 = r.p999;
          t3_max = r.max;
          pg_bound;
        })
      table3_sample_flows
  in
  let tcp_results =
    List.map
      (fun (flow, tcp) ->
        {
          tcp_flow = flow;
          goodput_bps = Ispn_transport.Tcp.goodput_bps tcp ~elapsed:duration;
          loss_rate = Ispn_transport.Tcp.loss_rate tcp;
          delivered = Ispn_transport.Tcp.delivered tcp;
          segments_sent = Ispn_transport.Tcp.segments_sent tcp;
        })
      tcps
  in
  let realtime_utilization =
    Array.init (Network.n_links net) (fun i ->
        float_of_int (Csz_sched.realtime_bits_sent (state i))
        /. (link_rate_bps *. duration))
  in
  let datagram_sent =
    List.fold_left (fun acc r -> acc + r.segments_sent) 0 tcp_results
  in
  let datagram_drop_rate =
    if datagram_sent = 0 then 0.
    else
      let retx =
        List.fold_left
          (fun acc (_, tcp) -> acc + Ispn_transport.Tcp.retransmissions tcp)
          0 tcps
      in
      float_of_int retx /. float_of_int datagram_sent
  in
  {
    rows;
    all_flows;
    tcp = tcp_results;
    info;
    realtime_utilization;
    datagram_drop_rate;
  }
