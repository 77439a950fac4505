open Ispn_sim
module Units = Ispn_util.Units
module Prng = Ispn_util.Prng
module Tb = Ispn_traffic.Token_bucket

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

let qdisc ?metrics sched _engine ~pool link =
  let label = string_of_int link in
  match sched with
  | Fifo -> Ispn_sched.Fifo.create ~pool ()
  | Wfq ->
      Ispn_sched.Wfq.create_equal ?metrics ~label ~pool
        ~link_rate_bps:Units.link_rate_bps ()
  | Fifo_plus -> snd (Ispn_sched.Fifo_plus.create ?metrics ~label ~pool ())

let register_arena_metrics = Instr.register_arena_metrics

(* One real-time flow: on/off source -> (A, 50) policer -> ingress switch,
   probe at the egress switch. *)
type rt_flow = {
  spec : Scenario.flow_spec;
  source : Ispn_traffic.Source.t;
  policer : Tb.policer;
  probe : Probe.t;
}

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

type wiring = {
  engine : Engine.t;
  net : Network.t;
  prng : Prng.t;
  instr : Instr.t;
  flows : rt_flow list;
}

let run ?instr ?(wire = fun _ () -> ()) ~qdisc_of ~duration ~seed
    (sc : Scenario.t) =
  (* Instruments the caller hands in are finished by the caller; a run
     without them finishes its own, which frees its leftover packets. *)
  let own = Option.is_none instr in
  let instr =
    match instr with
    | Some i -> i
    | None -> Instr.create ~check:false ~metrics:false ~series:false
  in
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let net =
    Network.create ~engine ~n_switches:sc.n_switches ~links:sc.links
      ~rate_bps:Units.link_rate_bps
      ~qdisc_of:(fun link ->
        let pool = Qdisc.pool ~capacity:Units.buffer_packets in
        Instr.register_pool instr ~link pool;
        qdisc_of engine ~pool link)
      ()
  in
  let n_links = Network.n_links net in
  for i = 0 to n_links - 1 do
    Instr.attach_link instr (Network.link net i)
  done;
  let bits = float_of_int Units.packet_bits in
  let rate_bps = sc.avg_rate_pps *. bits
  and depth_bits = Scenario.token_bucket_depth_packets *. bits in
  let attach ({ Scenario.flow; ingress; egress } as spec) =
    let path = Network.path net ~ingress ~egress in
    (* Results report [Scenario.hops], which is the routed length only on
       a chain. *)
    (match path with
    | Some links when List.length links <> Scenario.hops spec ->
        invalid_arg
          (Printf.sprintf
             "Experiment.run: flow %d has route length %d, not egress - \
              ingress = %d"
             flow (List.length links) (Scenario.hops spec))
    | _ -> ());
    let probe = Probe.create () in
    Network.install_flow net ~flow ~ingress ~egress ~sink:(fun pkt ->
        Probe.sink probe ~engine pkt);
    (* The policed stream first queues on its path's first link; audit its
       conformance there. *)
    (match (Instr.audit instr, path) with
    | Some a, Some (link :: _) ->
        Ispn_check.Audit.register_policed_flow a ~flow ~link ~rate_bps
          ~depth_bits
    | _ -> ());
    let bucket = Tb.create ~rate_bps ~depth_bits () in
    let policer =
      Tb.policer ~engine ~bucket ~mode:Tb.Drop ~next:(fun pkt ->
          Network.inject net ~at_switch:ingress pkt)
    in
    let source =
      Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow
        ~avg_rate_pps:sc.avg_rate_pps ~emit:(Tb.admit_fn policer) ()
    in
    { spec; source; policer; probe }
  in
  let flows = List.map attach sc.flows in
  let start = wire { engine; net; prng; instr; flows } in
  Instr.arm instr engine;
  List.iter (fun rt -> rt.source.Ispn_traffic.Source.start ()) flows;
  start ();
  Engine.run engine ~until:duration;
  let policed f = List.fold_left (fun acc rt -> acc + f rt.policer) 0 flows in
  let res =
    ( List.map result_of_rt_flow flows,
      {
        duration;
        utilization =
          Array.init n_links (fun i ->
              Network.utilization net ~link:i ~elapsed:duration);
        offered = policed Tb.offered;
        source_dropped = policed Tb.dropped;
        net_dropped = Network.total_dropped net;
      } )
  in
  if own then ignore (Instr.finish instr);
  res

let run_figure1 ~sched ?(duration = Units.sim_duration_s)
    ?(seed = 42L) ?metrics ?audit ?series ?hist () =
  (* Handles are read by the caller after the run, so only a run with
     none may finish its own bundle. *)
  let instr =
    match (metrics, audit, series, hist) with
    | None, None, None, None -> None
    | _ -> Some (Instr.of_handles ?metrics ?audit ?series ?hist ())
  in
  run ?instr ~qdisc_of:(qdisc ?metrics sched) ~duration ~seed
    (Scenario.figure1 ())

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
    ?(duration = Units.sim_duration_s) ?(seed = 42L) ?instr () =
  let open Scenario in
  let module Tcp = Ispn_transport.Tcp in
  let link_rate_bps = Units.link_rate_bps in
  let packet_bits_f = float_of_int Units.packet_bits in
  let peak_rate_bps = 2. *. avg_rate_pps *. packet_bits_f in
  let avg_rate_bps = avg_rate_pps *. packet_bits_f in
  (* One CSZ scheduler per link, kept for registration and accounting. *)
  let states = Array.make (figure1_n_switches - 1) None in
  let state i = Option.get states.(i) in
  let qdisc_of _engine ~pool i =
    let st, qdisc =
      Csz_sched.create
        ~config:{ Csz_sched.default_config with link_rate_bps }
        ?metrics:(Option.bind instr Instr.metrics)
        ~label:(string_of_int i) ~pool ()
    in
    states.(i) <- Some st;
    qdisc
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
  let tcps = ref [] in
  let wire w =
    (* Per-packet PG-bound detection for every guaranteed flow, checked on
       delivery at its egress link. *)
    Option.iter
      (fun a ->
        List.iter
          (fun spec ->
            Option.iter
              (fun bound_s ->
                Ispn_check.Audit.register_delay_bound a
                  ~kind:Ispn_check.Audit.Pg ~flow:spec.flow
                  ~link:(spec.egress - 1) ~bound_s)
              (pg_bound_s spec.flow ~hops:(hops spec)))
          figure1_flows)
      (Instr.audit w.instr);
    (* Per-class delay tails, aggregated across links: one channel per
       predicted class plus the datagram class, fed by every link's
       scheduler delay hook.  Guaranteed packets reach the hook with
       [cls = -1] and are skipped: their tail is the per-flow WFQ story,
       covered by the PG bound. *)
    Option.iter
      (fun h ->
        let chans =
          Array.init
            (Csz_sched.datagram_class (state 0) + 1)
            (fun c ->
              Ispn_obs.Hist.channel h (Printf.sprintf "csz.class.%d.delay" c))
        in
        Array.iter
          (fun st ->
            Csz_sched.set_delay_hook (Option.get st) (fun ~cls delay ->
                if cls >= 0 then Ispn_util.Loghist.add chans.(cls) delay))
          states)
      (Instr.hist w.instr);
    (* Register every real-time flow at each link on its path. *)
    List.iter
      (fun { flow; ingress; egress } ->
        for i = ingress to egress - 1 do
          match table3_class_of flow with
          | Guaranteed_peak ->
              Csz_sched.add_guaranteed (state i) ~flow
                ~clock_rate_bps:peak_rate_bps
          | Guaranteed_avg ->
              Csz_sched.add_guaranteed (state i) ~flow
                ~clock_rate_bps:avg_rate_bps
          | Predicted_high -> Csz_sched.set_predicted (state i) ~flow ~cls:0
          | Predicted_low -> Csz_sched.set_predicted (state i) ~flow ~cls:1
        done)
      figure1_flows;
    (* The two TCP connections, one per half of the chain; unregistered
       flows land in the datagram class.  They start after the real-time
       sources. *)
    tcps :=
      List.mapi
        (fun i (ingress, egress) ->
          let flow = 100 + i in
          let tcp =
            Tcp.create ~engine:w.engine ~flow
              ~send:(fun pkt -> Network.inject w.net ~at_switch:ingress pkt)
              ()
          in
          Network.install_flow w.net ~flow ~ingress ~egress
            ~sink:(fun pkt -> Tcp.receive tcp pkt);
          (flow, tcp))
        table3_tcp_paths;
    fun () -> List.iter (fun (_, tcp) -> Tcp.start tcp) !tcps
  in
  let all_flows, info =
    run ?instr ~wire ~qdisc_of ~duration ~seed
      (figure1 ~avg_rate_pps ())
  in
  let row (label, f) =
    let r = List.find (fun (r : flow_result) -> r.flow = f) all_flows in
    {
      label;
      t3_flow = f;
      t3_hops = r.hops;
      t3_mean = r.mean;
      t3_p999 = r.p999;
      t3_max = r.max;
      pg_bound =
        Option.map
          (Units.packet_times ~link_rate_bps ~packet_bits:Units.packet_bits)
          (pg_bound_s f ~hops:r.hops);
    }
  in
  let sum f = List.fold_left (fun acc (_, tcp) -> acc + f tcp) 0 !tcps in
  let datagram_sent = sum Tcp.segments_sent in
  {
    rows = List.map row table3_sample_flows;
    all_flows;
    tcp =
      List.map
        (fun (flow, tcp) ->
          {
            tcp_flow = flow;
            goodput_bps = Tcp.goodput_bps tcp ~elapsed:duration;
            loss_rate = Tcp.loss_rate tcp;
            delivered = Tcp.delivered tcp;
            segments_sent = Tcp.segments_sent tcp;
          })
        !tcps;
    info;
    realtime_utilization =
      Array.map
        (fun st ->
          float_of_int (Csz_sched.realtime_bits_sent (Option.get st))
          /. (link_rate_bps *. duration))
        states;
    datagram_drop_rate =
      (if datagram_sent = 0 then 0.
       else float_of_int (sum Tcp.retransmissions) /. float_of_int datagram_sent);
  }
