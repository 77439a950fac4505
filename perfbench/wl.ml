(* The benchmark's workloads.

   Each is composed from the library's public constructors exactly as its
   runner composes it ([Experiment.run_figure1] / [run_table3],
   [Extensions.run_scale] / [run_churn]), with a tracer's wrapper around
   every closure the benchmark hands to the simulator, and phase marks at
   the boundaries the runner keeps to itself: the first constructor call,
   the first simulated event, the end of the simulation.  Every workload
   returns its results in the runner's own types, marshalled, so a run is
   checked byte for byte against the runner for the same seed. *)

open Ispn_sim
module E = Csz.Experiment
module X = Csz.Extensions
module S = Csz.Scenario
module Units = Ispn_util.Units
module Prng = Ispn_util.Prng
module Dist = Ispn_util.Dist
module Idpool = Ispn_util.Idpool
module Spec = Ispn_admission.Spec
module Controller = Ispn_admission.Controller
module Audit = Ispn_check.Audit
module Metrics = Ispn_obs.Metrics
module Series = Ispn_obs.Series
module Tb = Ispn_traffic.Token_bucket
module Source = Ispn_traffic.Source
module Signaling = Csz.Signaling
module Fabric = Csz.Fabric

let now_ns = Tr.now_ns
(* This domain's allocation; a sharded run adds its shards' (below). *)
let minor_words () = Gc.minor_words ()
let repr v = Marshal.to_string v [ Marshal.No_sharing ]

(* What one rep of a workload cost and counted.  Workloads made of several
   simulations (Table 2's three schedulers, the four churn scenarios) sum
   their phases. *)
type stats = {
  mutable wall_ns : int;
  mutable setup_ns : int;
  mutable run_ns : int;
  mutable setup_minor : float;
  mutable run_minor : float;
  mutable major_collections : int;
  mutable top_heap_words : int;  (** the process's high-water mark *)
  mutable live_words : int;  (** see [sample_live] *)
  mutable hops : int;  (** completed link transmissions *)
  mutable events : int;
  mutable skipped : int;
  mutable pending_hwm : int;
  mutable offered : int;  (** packets offered to edge policers *)
  mutable policed : int;  (** ... and dropped by them *)
  mutable sessions : int;
  mutable control : int;
  mutable refresh : int;
  mutable retries : int;
  mutable established : int;
  mutable leaked : int;
  mutable audit_checks : int;
  mutable violations : int;
  mutable series_ticks : int;
  mutable export_ns : int;
  mutable windows : int;
  mutable exchanged : int;
  mutable shard_hops : int array;
  mutable mark_ns : int;
  mutable mark_minor : float;
}

let stats () =
  {
    wall_ns = 0; setup_ns = 0; run_ns = 0; setup_minor = 0.; run_minor = 0.;
    major_collections = 0; top_heap_words = 0; live_words = 0; hops = 0; events = 0; skipped = 0;
    pending_hwm = 0; offered = 0; policed = 0; sessions = 0; control = 0;
    refresh = 0; retries = 0; established = 0; leaked = 0; audit_checks = 0;
    violations = 0; series_ticks = 0; export_ns = 0; windows = 0;
    exchanged = 0; shard_hops = [||]; mark_ns = 0; mark_minor = 0.;
  }

type outcome = {
  result : string;  (** the results in the runner's types, marshalled *)
  st : stats;
  tr : Tr.t;  (** all shards summed *)
  shard_trs : Tr.t array;
}

(* {2 Phase marks} *)

let start_setup st =
  st.mark_ns <- now_ns ();
  st.mark_minor <- minor_words ()

let start_run st tr =
  let t = now_ns () and w = minor_words () in
  st.setup_ns <- st.setup_ns + (t - st.mark_ns);
  st.setup_minor <- st.setup_minor +. (w -. st.mark_minor);
  Tr.flush tr ~run:false;
  st.mark_ns <- now_ns ();
  st.mark_minor <- w

(* When set, the end of each simulation phase also reads the live major
   heap (a full collection: untimed reps only). *)
let sample_live = ref false

let end_run st tr =
  let t = now_ns () and w = minor_words () in
  st.run_ns <- st.run_ns + (t - st.mark_ns);
  st.run_minor <- st.run_minor +. (w -. st.mark_minor);
  Tr.flush tr ~run:true;
  if !sample_live then
    st.live_words <- max st.live_words (Gc.stat ()).Gc.live_words

let add_engine st engine =
  let s = Engine.stats engine in
  st.events <- st.events + s.Engine.events_fired;
  st.skipped <- st.skipped + s.Engine.cancels_skipped;
  st.pending_hwm <- max st.pending_hwm (Engine.heap_depth_hwm engine)

(* Whole-rep bracket: wall time and major collections. *)
let rep ~trace f =
  let st = stats () in
  let tr = Tr.create ~on:trace in
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = now_ns () in
  let result, shard_trs = f st tr in
  st.wall_ns <- now_ns () - w0;
  let gc = Gc.quick_stat () in
  st.major_collections <- gc.Gc.major_collections - majors0;
  (* Read before the result is marshalled for checking. *)
  st.top_heap_words <- gc.Gc.top_heap_words;
  Array.iter (Tr.add_into tr) shard_trs;
  { result = repr result; st; tr; shard_trs }

(* {2 The Figure-1 chain (Tables 2 and 3)} *)

let avg_rate_pps = S.default_avg_rate_pps
let packet_bits_f = float_of_int Units.packet_bits

(* [Experiment.attach_rt_flow] with the source's [emit] and the probe's
   sink wrapped. *)
let attach_rt_flow tr ?audit net prng ~(spec : S.flow_spec) =
  let engine = Network.engine net in
  let probe = Probe.create () in
  Network.install_flow net ~flow:spec.flow ~ingress:spec.ingress
    ~egress:spec.egress
    ~sink:(Tr.packet_fn tr Tr.b_sink (fun pkt -> Probe.sink probe ~engine pkt));
  let rate_bps = avg_rate_pps *. packet_bits_f in
  let depth_bits = S.token_bucket_depth_packets *. packet_bits_f in
  (match audit with
  | Some a when spec.ingress < spec.egress ->
      Audit.register_policed_flow a ~flow:spec.flow ~link:spec.ingress
        ~rate_bps ~depth_bits
  | _ -> ());
  let bucket = Tb.create ~rate_bps ~depth_bits () in
  let policer =
    Tb.policer ~engine ~bucket ~mode:Tb.Drop ~next:(fun pkt ->
        Network.inject net ~at_switch:spec.ingress pkt)
  in
  let source =
    Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow:spec.flow
      ~avg_rate_pps
      ~emit:(Tr.packet_fn tr Tr.b_emit (Tb.admit_fn policer))
      ()
  in
  { E.spec; source; policer; probe }

let info_of_run st net rt_flows ~duration =
  let offered =
    List.fold_left (fun acc (rt : E.rt_flow) -> acc + Tb.offered rt.policer) 0
      rt_flows
  and dropped =
    List.fold_left (fun acc (rt : E.rt_flow) -> acc + Tb.dropped rt.policer) 0
      rt_flows
  in
  st.offered <- st.offered + offered;
  st.policed <- st.policed + dropped;
  {
    E.duration;
    utilization =
      Array.init (Network.n_links net) (fun i ->
          Network.utilization net ~link:i ~elapsed:duration);
    offered;
    source_dropped = dropped;
    net_dropped = Network.total_dropped net;
  }

let count_hops st net =
  for i = 0 to Network.n_links net - 1 do
    st.hops <- st.hops + Link.sent (Network.link net i)
  done

let start_sources rt_flows =
  List.iter (fun (rt : E.rt_flow) -> rt.source.Source.start ()) rt_flows

(* {3 table3: [Experiment.run_table3]} *)

let table3_results st tr ~duration ~seed =
  start_setup st;
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let link_rate_bps = Units.link_rate_bps in
  let peak_rate_bps = 2. *. avg_rate_pps *. packet_bits_f in
  let avg_rate_bps = avg_rate_pps *. packet_bits_f in
  let states = Array.make (S.figure1_n_switches - 1) None in
  let net =
    Network.chain ~engine ~n_switches:S.figure1_n_switches
      ~rate_bps:link_rate_bps
      ~qdisc_of:(fun i ->
        let pool = Qdisc.pool ~capacity:Units.buffer_packets in
        let config =
          { Csz.Csz_sched.default_config with
            link_rate_bps; discard_late_above = None }
        in
        let st, qdisc =
          Csz.Csz_sched.create ~config ~label:(string_of_int i) ~pool ()
        in
        states.(i) <- Some st;
        Tr.qdisc tr qdisc)
      ()
  in
  let state i = Option.get states.(i) in
  List.iter
    (fun (spec : S.flow_spec) ->
      for i = spec.ingress to spec.egress - 1 do
        match S.table3_class_of spec.flow with
        | S.Guaranteed_peak ->
            Csz.Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:peak_rate_bps
        | S.Guaranteed_avg ->
            Csz.Csz_sched.add_guaranteed (state i) ~flow:spec.flow
              ~clock_rate_bps:avg_rate_bps
        | S.Predicted_high ->
            Csz.Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:0
        | S.Predicted_low ->
            Csz.Csz_sched.set_predicted (state i) ~flow:spec.flow ~cls:1
      done)
    S.figure1_flows;
  let rt_flows =
    List.map (fun spec -> attach_rt_flow tr net prng ~spec) S.figure1_flows
  in
  let tcps =
    List.mapi
      (fun i (ingress, egress) ->
        let flow = 100 + i in
        let tcp =
          Ispn_transport.Tcp.create ~engine ~flow
            ~send:
              (Tr.packet_fn tr Tr.b_emit (fun pkt ->
                   Network.inject net ~at_switch:ingress pkt))
            ()
        in
        Network.install_flow net ~flow ~ingress ~egress
          ~sink:
            (Tr.packet_fn tr Tr.b_sink (fun pkt ->
                 Ispn_transport.Tcp.receive tcp pkt));
        (flow, tcp))
      S.table3_tcp_paths
  in
  start_sources rt_flows;
  List.iter (fun (_, tcp) -> Ispn_transport.Tcp.start tcp) tcps;
  start_run st tr;
  Engine.run engine ~until:duration;
  end_run st tr;
  add_engine st engine;
  count_hops st net;
  (* The runner's reduction; its [rows] are a projection of [all_flows]. *)
  let all_flows = List.map E.result_of_rt_flow rt_flows in
  let info = info_of_run st net rt_flows ~duration in
  let tcp =
    List.map
      (fun (flow, tcp) ->
        {
          E.tcp_flow = flow;
          goodput_bps = Ispn_transport.Tcp.goodput_bps tcp ~elapsed:duration;
          loss_rate = Ispn_transport.Tcp.loss_rate tcp;
          delivered = Ispn_transport.Tcp.delivered tcp;
          segments_sent = Ispn_transport.Tcp.segments_sent tcp;
        })
      tcps
  in
  let realtime_utilization =
    Array.init (Network.n_links net) (fun i ->
        float_of_int (Csz.Csz_sched.realtime_bits_sent (state i))
        /. (link_rate_bps *. duration))
  in
  let sent = List.fold_left (fun acc (r : E.tcp_result) -> acc + r.segments_sent) 0 tcp in
  let datagram_drop_rate =
    if sent = 0 then 0.
    else
      let retx =
        List.fold_left
          (fun acc (_, tcp) -> acc + Ispn_transport.Tcp.retransmissions tcp)
          0 tcps
      in
      float_of_int retx /. float_of_int sent
  in
  (all_flows, tcp, info, realtime_utilization, datagram_drop_rate)

let table3 ~duration ~seed ~trace =
  rep ~trace (fun st tr -> (table3_results st tr ~duration ~seed, [||]))

let table3_reference ~duration ~seed =
  let r = E.run_table3 ~duration ~seed () in
  repr (r.E.all_flows, r.E.tcp, r.E.info, r.E.realtime_utilization,
        r.E.datagram_drop_rate)

(* {3 table2-audited: [Experiment.run_figure1] with --check, --metrics and
   --series} *)

let table2_scheds = [ E.Wfq; E.Fifo; E.Fifo_plus ]

let qdisc_for ~metrics ~label sched ~pool ~link_rate_bps =
  match sched with
  | E.Fifo -> Ispn_sched.Fifo.create ~pool ()
  | E.Wfq -> Ispn_sched.Wfq.create_equal ~metrics ~label ~pool ~link_rate_bps ()
  | E.Fifo_plus -> snd (Ispn_sched.Fifo_plus.create ~metrics ~label ~pool ())

let register_pool_metrics m ~link pool =
  let p = Printf.sprintf "link.%d.pool" link in
  Metrics.register_int m (p ^ ".in_use") (fun () -> Qdisc.pool_in_use pool);
  Metrics.register_int m (p ^ ".in_use_hwm") (fun () -> Qdisc.pool_hwm pool);
  Metrics.register_int m (p ^ ".capacity") (fun () -> Qdisc.pool_capacity pool)

let figure1_audited st tr ~duration ~seed sched =
  start_setup st;
  let m = Metrics.create () in
  let series = Series.create ~metrics:m () in
  let hist = Ispn_obs.Hist.create ~metrics:m () in
  let audit = Audit.create () in
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let link_rate_bps = Units.link_rate_bps in
  let net =
    Network.chain ~engine ~n_switches:S.figure1_n_switches
      ~rate_bps:link_rate_bps
      ~qdisc_of:(fun link ->
        let pool = Qdisc.pool ~capacity:Units.buffer_packets in
        register_pool_metrics m ~link pool;
        Audit.register_pool audit ~link pool;
        Tr.qdisc tr
          (qdisc_for ~metrics:m ~label:(string_of_int link) sched ~pool
             ~link_rate_bps))
      ()
  in
  Engine.register_metrics engine m;
  Network.register_metrics net m;
  E.register_arena_metrics m;
  let n_links = Network.n_links net in
  for i = 0 to n_links - 1 do
    let lk = Network.link net i in
    Audit.attach_link audit lk;
    (* Same context, same tap, timed: replaces the one just attached. *)
    if tr.Tr.on then Link.set_tap lk (Tr.tap tr Tr.b_audit (Audit.tap audit))
  done;
  for i = 0 to n_links - 1 do
    let ch = Ispn_obs.Hist.channel hist (Printf.sprintf "link.%d.wait" i) in
    Link.add_tap (Network.link net i) (Tap.make ~on_dequeue:(Tr.hist_add tr ch) ())
  done;
  let rt_flows =
    List.map
      (fun spec -> attach_rt_flow tr ~audit net prng ~spec)
      S.figure1_flows
  in
  Engine.attach_series engine series;
  start_sources rt_flows;
  start_run st tr;
  Engine.run engine ~until:duration;
  end_run st tr;
  add_engine st engine;
  count_hops st net;
  let results = List.map E.result_of_rt_flow rt_flows in
  let info = info_of_run st net rt_flows ~duration in
  let summary = Audit.finalize audit in
  st.audit_checks <- st.audit_checks + summary.Audit.checks;
  st.violations <- st.violations + summary.Audit.violations;
  st.series_ticks <- st.series_ticks + Series.length series;
  (sched, results, info, summary, Metrics.snapshot m, Series.export ~hist series)

(* The --metrics and --series exports, rendered as the harnesses write
   them. *)
let table2_export runs =
  let label s = "table2." ^ E.sched_name s in
  ( Metrics.render_json
      (List.map (fun (s, _, _, _, snap, _) -> (label s, snap)) runs),
    Series.render_json
      (List.map (fun (s, _, _, _, _, ex) -> (label s, ex)) runs) )

let table2_result runs (metrics_json, series_json) =
  ( List.map (fun (s, r, i, summary, _, _) -> (s, r, i, summary)) runs,
    metrics_json,
    series_json )

let table2_audited ~duration ~seed ~trace =
  rep ~trace (fun st tr ->
      let runs =
        List.map (figure1_audited st tr ~duration ~seed) table2_scheds
      in
      let e0 = now_ns () in
      let exports = table2_export runs in
      st.export_ns <- now_ns () - e0;
      (table2_result runs exports, [||]))

let table2_reference ~duration ~seed =
  let runs =
    List.map
      (fun sched ->
        let m = Metrics.create () in
        let series = Series.create ~metrics:m () in
        let hist = Ispn_obs.Hist.create ~metrics:m () in
        let audit = Audit.create () in
        let results, info =
          E.run_figure1 ~sched ~metrics:m ~audit ~series ~hist ~duration ~seed
            ()
        in
        ( sched, results, info, Audit.finalize audit, Metrics.snapshot m,
          Series.export ~hist series ))
      table2_scheds
  in
  repr (table2_result runs (table2_export runs))

(* {2 scale: [Extensions.run_scale]}

   One shard: on a two-core virtual machine a two-domain run's timings
   spread 35-41% across seeds (each domain runs at the mercy of whatever
   shares its core), several times one domain's under the same host.  The
   sharded path (domain spawn, [on_shard], window loop) still runs;
   cross-shard exchange does not. *)

let scale_shards = 1
let scale_regions = 4
let scale_per_region = 5
let scale_flows = 2000
let scale_rate_pps = 8.

let scale_results st ~trs ~duration ~seed =
  let shards = scale_shards and regions = scale_regions in
  let per_region = scale_per_region and flows = scale_flows in
  start_setup st;
  let n_switches = regions * per_region in
  let shard_of =
    Array.init n_switches (fun s -> s / per_region * shards / regions)
  in
  let link_rate_bps = 10. *. Units.link_rate_bps in
  (* Allocation is counted per domain: each shard's set-up runs from its
     first link factory call to its [on_shard]; the whole rep's total is
     read after the join, when the shards' counters have been merged. *)
  let shard_minor0 = Array.make shards Float.nan in
  let total_minor0 = (Gc.quick_stat ()).Gc.minor_words in
  let link_specs =
    Array.init
      (2 * (n_switches - 1))
      (fun li ->
        let i = li / 2 in
        let backbone = (i + 1) mod per_region = 0 in
        let base = if backbone then 10e-3 else 1e-3 in
        let prop = base *. (1. +. (0.003 *. float_of_int li)) in
        let src, dst = if li land 1 = 0 then (i, i + 1) else (i + 1, i) in
        let tr = trs.(shard_of.(src)) in
        {
          Shardnet.l_src = src;
          l_dst = dst;
          l_rate_bps = link_rate_bps;
          l_prop_delay = prop;
          l_qdisc =
            (fun () ->
              let s = shard_of.(src) in
              if Float.is_nan shard_minor0.(s) then
                shard_minor0.(s) <- minor_words ();
              let pool = Qdisc.pool ~capacity:Units.buffer_packets in
              Tr.qdisc tr (Ispn_sched.Fifo.create ~pool ()));
        })
  in
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
        let tr = trs.(shard_of.(src)) in
        {
          Shardnet.f_src = src;
          f_dst = dst;
          f_driver =
            (fun engine emit ->
              let source =
                Ispn_traffic.Onoff.create ~engine ~prng:fp ~flow:f
                  ~avg_rate_pps:scale_rate_pps ~packet_bits:Units.packet_bits
                  ~emit:(Tr.packet_fn tr Tr.b_emit emit) ()
              in
              source.Source.start ());
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
  (* Set-up ends at the last shard's [on_shard], after the spawn; each
     shard's hook closes its own tracer's set-up phase. *)
  let engines = Array.make shards None in
  let ready_ns = Array.make shards 0 and ready_minor = Array.make shards 0. in
  let on_shard ~shard engine =
    engines.(shard) <- Some engine;
    Tr.flush trs.(shard) ~run:false;
    ready_minor.(shard) <- minor_words ();
    ready_ns.(shard) <- now_ns ()
  in
  let res = Shardnet.run ~on_shard ~until:duration spec in
  let t_end = now_ns () in
  let last = ref 0 in
  Array.iteri (fun s t -> if t > ready_ns.(!last) then last := s) ready_ns;
  st.setup_ns <- ready_ns.(!last) - st.mark_ns;
  st.run_ns <- t_end - ready_ns.(!last);
  st.setup_minor <- minor_words () -. st.mark_minor;
  Array.iteri
    (fun s r -> st.setup_minor <- st.setup_minor +. (r -. shard_minor0.(s)))
    ready_minor;
  st.run_minor <-
    (Gc.quick_stat ()).Gc.minor_words -. total_minor0 -. st.setup_minor;
  Array.iter (fun tr -> Tr.flush tr ~run:true) trs;
  Array.iter (function Some e -> add_engine st e | None -> ()) engines;
  st.windows <- res.Shardnet.r_windows;
  st.exchanged <- res.Shardnet.r_drained;
  st.shard_hops <- Array.make shards 0;
  Array.iteri
    (fun li (k : Shardnet.link_stat) ->
      let s = shard_of.(link_specs.(li).Shardnet.l_src) in
      st.shard_hops.(s) <- st.shard_hops.(s) + k.Shardnet.k_sent;
      st.hops <- st.hops + k.Shardnet.k_sent)
    res.Shardnet.r_links;
  (* The runner's reduction. *)
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
            let fst = res.Shardnet.r_flows.(f) in
            del := !del + fst.Shardnet.f_delivered;
            dsum := !dsum +. fst.Shardnet.f_delay_sum;
            if fst.Shardnet.f_delay_max > !dmax then
              dmax := fst.Shardnet.f_delay_max;
            qsum := !qsum +. fst.Shardnet.f_qdelay_sum
          end
        done;
        {
          X.sc_span = span;
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
  {
    X.sc_rows = rows;
    sc_switches = n_switches;
    sc_links = Array.length link_specs;
    sc_flow_count = flows;
    sc_delivered_total =
      Array.fold_left
        (fun acc (s : Shardnet.flow_stat) -> acc + s.Shardnet.f_delivered)
        0 res.Shardnet.r_flows;
    sc_sent = !sent;
    sc_dropped = !dropped;
    sc_shards = res.Shardnet.r_shards;
    sc_windows = res.Shardnet.r_windows;
    sc_lookahead = res.Shardnet.r_lookahead;
    sc_cut_links = res.Shardnet.r_cut_links;
    sc_exchanged = res.Shardnet.r_drained;
    sc_fired = res.Shardnet.r_fired;
    sc_check = None;
    sc_metrics = None;
    sc_series = None;
  }

let scale ~duration ~seed ~trace =
  rep ~trace (fun st tr ->
      let trs = Array.init scale_shards (fun _ -> Tr.create ~on:tr.Tr.on) in
      (scale_results st ~trs ~duration ~seed, trs))

let scale_reference ~duration ~seed =
  repr (X.run_scale ~duration ~seed ~shards:scale_shards ())

(* {2 churn: [Extensions.run_churn]} *)

let churn_scenarios = X.[ C_clean; C_lossy_teardown; C_agent_crash; C_link_flap ]

type session = {
  mutable cs_st : [ `Pending | `Active | `Gone ];
  mutable cs_wants_out : bool;
  mutable cs_departed_at : float;
  mutable cs_src : Source.t option;
  cs_no : int;  (** arrival number: the session's span id *)
}

let churn_one st tr ~duration ~seed scenario =
  let lambda = 420. in
  let refresh_interval = 3.0 and lifetime_epochs = 3 in
  let lifetime = refresh_interval *. float_of_int lifetime_epochs in
  let reclaim = lifetime +. (2.1 *. refresh_interval) in
  start_setup st;
  let engine = Engine.create () in
  let prng = Prng.create ~seed in
  let fab = Fabric.chain ~engine ~n_switches:5 () in
  let n_links = Fabric.n_links fab in
  let sg =
    Signaling.deploy ~fabric:fab ~setup_timeout:0.02 ~max_retries:4
      ~refresh_interval ~lifetime_epochs ()
  in
  let pool = Idpool.create ~capacity:1024 () in
  let sink = Tr.packet_fn tr Tr.b_sink Packet.free in
  for link = 0 to n_links - 1 do
    let flow = 910_000 + link in
    Fabric.install_flow fab ~flow ~ingress:link ~egress:(link + 1) ~sink;
    let src =
      Ispn_traffic.Onoff.create ~engine ~prng:(Prng.split prng) ~flow
        ~avg_rate_pps:200.
        ~emit:
          (Tr.packet_fn tr Tr.b_emit (fun p -> Fabric.inject fab ~at_switch:link p))
        ()
    in
    src.Source.start ()
  done;
  let sessions : (int, session) Hashtbl.t = Hashtbl.create 4096 in
  let offered = ref 0 in
  let release_later flow =
    ignore
      (Engine.schedule_after engine ~delay:reclaim (fun () ->
           Idpool.release pool ~id:flow))
  in
  let depart s flow =
    (match s.cs_src with Some src -> src.Source.stop () | None -> ());
    s.cs_src <- None;
    s.cs_st <- `Gone;
    s.cs_departed_at <- Engine.now engine;
    Tr.call tr Tr.b_depart ~id:s.cs_no (fun () -> Signaling.depart sg ~flow);
    release_later flow
  in
  let rec arrival () =
    incr offered;
    let flow = Idpool.take pool in
    let ingress = Prng.int prng ~bound:(n_links - 1 + 1) in
    let egress = ingress + 1 + Prng.int prng ~bound:(n_links - ingress) in
    let u = Prng.float prng in
    let spec, own_bucket =
      if u < 0.15 then
        let rate = Dist.uniform prng ~lo:2_000. ~hi:20_000. in
        ( Spec.Guaranteed { clock_rate_bps = rate },
          Some { Spec.rate_bps = rate; depth_bits = 4_000. } )
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
        cs_src = None; cs_no = !offered }
    in
    Hashtbl.replace sessions flow s;
    Tr.call tr Tr.b_setup ~id:s.cs_no (fun () ->
        Signaling.setup sg ~flow ~ingress ~egress ?own_bucket spec ~sink
          ~on_result:(function
            | Error _ ->
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
                        ~emit:(Tr.packet_fn tr Tr.b_emit est.Signaling.emit)
                        ()
                    in
                    s.cs_src <- Some src;
                    src.Source.start ()
                  end
                end));
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
  let plan =
    let open Ispn_faults.Plan in
    match scenario with
    | X.C_clean -> none
    | X.C_lossy_teardown ->
        [
          Corrupt
            { link = 1; from_ = 0.15 *. duration; until = 0.85 *. duration;
              per_packet = 0.3 };
          Corrupt
            { link = 2; from_ = 0.3 *. duration; until = 0.7 *. duration;
              per_packet = 0.3 };
        ]
    | X.C_agent_crash ->
        [
          Agent_crash { switch = 1; at = 0.4 *. duration };
          Agent_crash { switch = 2; at = 0.7 *. duration };
        ]
    | X.C_link_flap ->
        [
          Link_down { link = 2; at = 0.3 *. duration; duration = 3. };
          Link_down { link = 2; at = 0.65 *. duration; duration = 1. };
        ]
  in
  let links = Array.init n_links (Fabric.link fab) in
  let _stats =
    Ispn_faults.Inject.apply ~engine ~links
      ~on_agent_crash:(fun ~switch -> Signaling.crash_agent sg ~switch)
      ~corrupt_seed:(Int64.add seed 99L) plan
  in
  start_run st tr;
  Engine.run engine ~until:duration;
  end_run st tr;
  add_engine st engine;
  Array.iter (fun lk -> st.hops <- st.hops + Link.sent lk) links;
  (* The runner's leak sweep and row. *)
  let now = Engine.now engine in
  let leaked = ref 0 in
  for link = 0 to n_links - 1 do
    List.iter
      (fun flow ->
        match Hashtbl.find_opt sessions flow with
        | Some s when s.cs_st = `Gone && now -. s.cs_departed_at > reclaim ->
            incr leaked
        | Some _ | None -> ())
      (Controller.live_flows (Signaling.controller sg ~link))
  done;
  let established = Signaling.total_established sg in
  let refused = Signaling.refused_count sg in
  let decisions = established + refused in
  let ctrl_pkts = Signaling.control_packets_sent sg in
  st.sessions <- st.sessions + !offered;
  st.control <- st.control + ctrl_pkts;
  st.refresh <- st.refresh + Signaling.refresh_packets_sent sg;
  st.retries <- st.retries + Signaling.retries sg;
  st.established <- st.established + established;
  st.leaked <- st.leaked + !leaked;
  {
    X.ch_scenario = scenario;
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
    ch_slot_hwm = Idpool.hwm pool;
    ch_recycled = Idpool.takes pool - Idpool.hwm pool;
    ch_leaked = !leaked;
    ch_check = None;
    ch_series = None;
  }

let churn ~duration ~seed ~trace =
  rep ~trace (fun st tr ->
      (List.map (churn_one st tr ~duration ~seed) churn_scenarios, [||]))

let churn_reference ~duration ~seed =
  repr (X.run_churn ~duration ~seed ~j:1 ())

(* {2 The catalogue} *)

type t = {
  name : string;
  shards : int;
  duration : float;  (** simulated seconds of one rep *)
  run : duration:float -> seed:int64 -> trace:bool -> outcome;
  reference : duration:float -> seed:int64 -> string;
}

let all =
  [
    { name = "table3"; shards = 1; duration = 25.; run = table3;
      reference = table3_reference };
    { name = "table2-audited"; shards = 1; duration = 10.;
      run = table2_audited; reference = table2_reference };
    { name = "scale"; shards = scale_shards; duration = 2.;
      run = scale; reference = scale_reference };
    { name = "churn"; shards = 1; duration = 8.; run = churn;
      reference = churn_reference };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
