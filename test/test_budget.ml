open Ispn_sim

(* Strict Gc.minor_words budgets for the two structures the event and
   packet arenas made allocation-free: the engine's drain loop and the
   packet arena's take/release cycle.  Unlike the steady-state ceilings in
   test_hotpath.ml (which tolerate qdisc-interface boxing), these assert
   ZERO words — any regression to per-event or per-packet boxing fails.

   Measurement discipline: a float crossing a function boundary is boxed
   (2 minor words) on a non-flambda compiler, so the loops below pass only
   float literals (statically allocated) or keep computed floats out of
   call arguments.  The engine chain uses a constant [~delay] for the same
   reason: the cost of boxing a *computed* delay belongs to the caller,
   not to the engine. *)

let per_n f n =
  (* One throwaway run to trigger any lazy growth, then measure. *)
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_engine_drain_zero_alloc () =
  let e = Engine.create () in
  let n = 50_000 in
  let count = ref 0 in
  let rec act () =
    incr count;
    if !count < n then ignore (Engine.schedule_after e ~delay:1e-5 act)
  in
  ignore (Engine.schedule_after e ~delay:1e-5 act);
  (* Warm the engine's arena and heap arrays. *)
  Engine.run e ~until:0.05;
  let before = Gc.minor_words () in
  Engine.run e ~until:10.;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all fired" n !count;
  let per_event = words /. float_of_int (n - !count + n) in
  if per_event > 0.01 then
    Alcotest.failf
      "engine drain: %.3f minor words per event (expected 0 — the \
       schedule/fire/pop path must not box)"
      per_event

let test_arena_take_release_zero_alloc () =
  (* Warm-up grows the arena past the high-water mark of the loop, so the
     measured cycles recycle the free list only. *)
  let warm = Array.init 64 (fun i -> Packet.make ~flow:i ~seq:i ~created:0. ()) in
  Array.iter Packet.free warm;
  let per =
    per_n
      (fun () ->
        let p = Packet.make ~flow:3 ~seq:7 ~created:0. () in
        Packet.free p)
      20_000
  in
  if per > 0.01 then
    Alcotest.failf
      "arena make+free: %.3f minor words per packet (expected 0 — handles \
       recycle through the free list without boxing)"
      per

let test_arena_field_stores_zero_alloc () =
  (* The point of the struct-of-arrays layout: hot-path float stores into
     a bound arena are unboxed.  (The old mixed record boxed every store.) *)
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  let pa = Packet.arena () in
  let per =
    per_n
      (fun () ->
        pa.Packet.enqueued_at.(p) <- pa.Packet.enqueued_at.(p) +. 1e-6;
        pa.Packet.qdelay_total.(p) <- pa.Packet.qdelay_total.(p) +. 1e-6;
        pa.Packet.offset.(p) <- pa.Packet.offset.(p) +. 1e-6)
      20_000
  in
  Packet.free p;
  if per > 0.01 then
    Alcotest.failf
      "arena float stores: %.3f minor words per 3 stores (expected 0 — \
       float-array writes are unboxed)"
      per

let test_fifo_cycle_interface_budget () =
  (* Full enqueue+dequeue through the qdisc closures: the only remaining
     allocation is the interface itself — the boxed [~now] argument of
     each closure call and dequeue's [Some pkt] — so ~6 words/cycle.
     8 catches any return of per-packet structures while documenting that
     the option and the two boxed floats are the irreducible residue. *)
  let qdisc = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:128) () in
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  assert (qdisc.Qdisc.enqueue ~now:0. p);
  let clock = ref 0. in
  let per =
    per_n
      (fun () ->
        clock := !clock +. 1e-6;
        let q = Packet.make ~flow:1 ~seq:1 ~created:0. () in
        ignore (qdisc.Qdisc.enqueue ~now:!clock q);
        match qdisc.Qdisc.dequeue ~now:!clock with
        | Some served -> Packet.free served
        | None -> Alcotest.fail "standing queue ran dry")
      20_000
  in
  if per > 8. then
    Alcotest.failf
      "FIFO cycle: %.1f minor words (expected <= 8: two boxed ~now floats \
       and dequeue's Some)"
      per

let test_idpool_cycle_zero_alloc () =
  (* The flow-slot free list under churn: once warm, a session open/close
     is three dense-array stores and an int push/pop — no boxing. *)
  let p = Ispn_util.Idpool.create ~capacity:64 () in
  let n = 100_000 in
  let per =
    per_n
      (fun () ->
        let id = Ispn_util.Idpool.take p in
        Ispn_util.Idpool.release p ~id)
      n
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "idpool take+release: %.3f minor words per cycle (expected 0 — slots \
        are dense int arrays)"
       per)
    true (per < 0.01)

let test_sched_session_open_close_budget () =
  (* A churn session's footprint on one link's scheduler: reserve +
     classify on open, the reverse on close.  All four entry points write
     dense flow-indexed arrays; the only tolerated words are the boxed
     float rate crossing add_guaranteed's boundary. *)
  let pool = Qdisc.pool ~capacity:16 in
  let sched, _qdisc = Csz.Csz_sched.create ~pool () in
  let n = 50_000 in
  let per =
    per_n
      (fun () ->
        Csz.Csz_sched.add_guaranteed sched ~flow:7 ~clock_rate_bps:10_000.;
        Csz.Csz_sched.set_predicted sched ~flow:8 ~cls:1;
        Csz.Csz_sched.clear_predicted sched ~flow:8;
        Csz.Csz_sched.remove_guaranteed sched ~flow:7)
      n
  in
  (* Steady state measures 12: the mutable [g_weight_sum] float field and
     the weights returned/negated across [g_weight_of]/[resize_flow0]
     boundaries.  Any per-session record, closure or Hashtbl would blow
     well past this. *)
  Alcotest.(check bool)
    (Printf.sprintf
       "sched open+close: %.1f minor words per session (expected <= 14: \
        boxed weights at function boundaries only)"
       per)
    true (per <= 14.)

let test_loghist_add_zero_alloc () =
  (* The histogram feed --series attaches to every dequeue: a branch, a
     log10 and an int store, on all three paths (regular, underflow,
     overflow).  Float literals only — a computed sample's boxing belongs
     to the caller. *)
  let h = Ispn_util.Loghist.create () in
  let per =
    per_n
      (fun () ->
        Ispn_util.Loghist.add h 0.004;
        Ispn_util.Loghist.add h 1e-9;
        Ispn_util.Loghist.add h 1e9)
      50_000
  in
  if per > 0.01 then
    Alcotest.failf
      "loghist add: %.3f minor words per 3 adds (expected 0 — bucket \
       counts are a dense int array)"
      per

let test_probe_sink_zero_alloc () =
  (* The per-packet end of every Table 1-3 flow: one float pushed from the
     arena into the flow's sample vector, and the handle freed.  40,000
     warm-up packets grow the vector to 65,536 slots, so the measured
     60,001 pushes never reallocate it. *)
  let engine = Engine.create () in
  let probe = Probe.create () in
  let deliver () =
    Probe.sink probe ~engine (Packet.make ~flow:0 ~seq:0 ~created:0. ())
  in
  for _ = 1 to 40_000 do
    deliver ()
  done;
  let per = per_n deliver 20_000 in
  Alcotest.(check int) "all counted" 60_001 (Probe.received probe);
  if per > 0.01 then
    Alcotest.failf
      "probe sink: %.3f minor words per packet (expected 0 — the qdelay \
       sample goes from the arena to the vector unboxed)"
      per

let test_series_dequeue_tap_budget () =
  (* Everything --series hangs off a link's per-packet dequeue, composed
     the way the runners compose it: a Tap.seq dispatching into the wait
     histogram and the flight recorder's ring store.  The histogram add is
     an int bump and the ring writes scalar arrays in place, so with
     literal arguments the whole chain must not allocate. *)
  let ch = Ispn_util.Loghist.create () in
  let r = Ispn_obs.Recorder.create ~capacity:1024 () in
  let tap =
    Tap.seq
      (Tap.make
         ~on_dequeue:(fun ~link:_ ~now:_ ~wait _ ->
           Ispn_util.Loghist.add ch wait)
         ())
      (Tap.make
         ~on_dequeue:(fun ~link ~now ~wait:_ p ->
           ignore p;
           Ispn_obs.Recorder.record r ~time:now
             ~kind:Ispn_obs.Recorder.Dequeue ~link ~flow:0 ~seq:0 ~cls:(-1)
             ~offset:0. ~value:0. ~cause:Ispn_obs.Recorder.No_cause)
         ())
  in
  let p = Packet.make ~flow:0 ~seq:0 ~created:0. () in
  let per =
    per_n (fun () -> tap.Tap.on_dequeue ~link:0 ~now:1.0 ~wait:0.002 p) 50_000
  in
  Packet.free p;
  if per > 0.01 then
    Alcotest.failf
      "series dequeue tap: %.3f minor words per dispatch (expected 0 — \
       hist add and ring store are in-place)"
      per

let test_stats_add_zero_alloc () =
  (* Link.waits takes one add per transmission.  An all-float record makes
     each field update an unboxed store. *)
  let st = Ispn_util.Stats.create () in
  let per =
    per_n
      (fun () ->
        Ispn_util.Stats.add st 0.004;
        Ispn_util.Stats.add st 1e-9)
      50_000
  in
  if per > 0.01 then
    Alcotest.failf
      "stats add: %.3f minor words per 2 adds (expected 0 — every field is \
       an unboxed float store)"
      per

(* Switch forwarding on its own: a packet's first switch resolves its
   flow id to a route index (one table lookup, cached in the packet), a
   later switch reads its port array at that index.  Neither boxes. *)
let test_node_forward_zero_alloc () =
  let index = Node.index () in
  let a = Node.create ~index ~name:"A" and b = Node.create ~index ~name:"B" in
  Node.add_route a ~flow:11 (Node.Deliver Packet.free);
  Node.add_route b ~flow:900_011 (Node.Deliver (fun _ -> ()));
  let resolve =
    per_n
      (fun () ->
        Node.receive a (Packet.make ~flow:11 ~seq:0 ~created:0. ()))
      20_000
  in
  (* [per_n]'s warm-up call resolves [p]; the measured ones index. *)
  let p = Packet.make ~flow:900_011 ~seq:0 ~created:0. () in
  let indexed = per_n (fun () -> Node.receive b p) 20_000 in
  Packet.free p;
  if resolve > 0.01 || indexed > 0.01 then
    Alcotest.failf
      "switch forwarding: %.3f minor words per first-switch hop, %.3f per \
       later hop (expected 0 — an index lookup and an array load)"
      resolve indexed

(* Minor words per link transmission on a 5-switch FIFO chain: the
   injector and the sink allocate nothing of their own (literal floats, a
   single self-rescheduling closure, [Packet.free] as the sink), so the
   whole figure is the hop — node routing, link enqueue, transmit, the
   wire's engine lane and delivery.  What remains is the [Qdisc.t]
   interface (the boxed clock reads passed as [~now] to enqueue and
   dequeue, dequeue's [Some]: 6 words) plus the boxed wait and
   transmission time the link hands to its accumulator and to the engine
   (4 words); the lane push allocates nothing.  11 measured, 40 before
   the link's per-packet closures, the route lookup's [Some] and the
   boxed stores into [Stats.t] went.  No per-packet closure, option or
   boxed record field fits under the ceiling. *)
let hop_budget = 16.

let test_link_hop_budget ?(wire = fun _ _ -> ()) () =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:5 ~rate_bps:1e6 ~prop_delay:5e-3
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:200) ())
      ()
  in
  wire engine net;
  Network.install_flow net ~flow:1 ~ingress:0 ~egress:4 ~sink:Packet.free;
  (* Two 1 ms packets every 3 ms: a standing queue half the time and
     several packets propagating on every wire. *)
  let rec inject () =
    Network.inject net ~at_switch:0 (Packet.make ~flow:1 ~seq:0 ~created:0. ());
    Network.inject net ~at_switch:0 (Packet.make ~flow:1 ~seq:1 ~created:0. ());
    ignore (Engine.schedule_after engine ~delay:3e-3 inject)
  in
  inject ();
  let sent () =
    let n = ref 0 in
    for i = 0 to Network.n_links net - 1 do
      n := !n + Link.sent (Network.link net i)
    done;
    !n
  in
  Engine.run engine ~until:1.;
  let s0 = sent () in
  let before = Gc.minor_words () in
  Engine.run engine ~until:21.;
  let words = Gc.minor_words () -. before in
  let hops = sent () - s0 in
  Alcotest.(check int) "no drops" 0 (Network.total_dropped net);
  Alcotest.(check bool) "hops measured" true (hops > 40_000);
  let per = words /. float_of_int hops in
  if per > hop_budget then
    Alcotest.failf
      "link hop: %.1f minor words per transmission (expected <= %.0f — \
       only the qdisc interface and two boxed floats)"
      per hop_budget

(* Free when off: a runner wires every link through its instrument
   bundle, so with --check, --metrics and --series all off the bundle must
   install no tap and leave the hop at the same budget. *)
let test_link_hop_instr_off () =
  test_link_hop_budget
    ~wire:(fun engine net ->
      let off = Csz.Instr.create ~check:false ~metrics:false ~series:false in
      for i = 0 to Network.n_links net - 1 do
        let lk = Network.link net i in
        Csz.Instr.attach_link off lk;
        Alcotest.(check bool) "no tap installed" false (Link.tapped lk)
      done;
      Csz.Instr.arm off engine)
    ()

let test_onoff_no_closure_per_packet () =
  (* Steady state of an on/off source.  Per packet the only allocation
     is the boxed creation time (the [~created] argument of
     [Packet.make], 2 words); the idle pause and the PRNG draws are per
     burst, and 1000-packet bursts make their share negligible.  Every
     event is one of the source's own callbacks, so nothing the size of a
     closure (4+ words) is allocated per packet. *)
  let engine = Engine.create () in
  let src =
    Ispn_traffic.Onoff.create ~engine
      ~prng:(Ispn_util.Prng.create ~seed:7L)
      ~flow:1 ~avg_rate_pps:1000. ~burst_mean:1000. ~emit:Packet.free ()
  in
  src.Ispn_traffic.Source.start ();
  Engine.run engine ~until:1.;
  let g0 = src.Ispn_traffic.Source.generated () in
  let before = Gc.minor_words () in
  Engine.run engine ~until:41.;
  let words = Gc.minor_words () -. before in
  let pkts = src.Ispn_traffic.Source.generated () - g0 in
  Alcotest.(check bool) "packets measured" true (pkts > 30_000);
  let per = words /. float_of_int pkts in
  if per > 3. then
    Alcotest.failf
      "on/off source: %.2f minor words per packet (expected <= 3 — the \
       boxed creation time only)"
      per

(* The control plane on a 4-hop chain (5 switches), soft state on with a
   refresh interval far beyond the measured window: every grant stamps its
   hop, no periodic timer fires.  Each figure is the whole script — the
   agents' books, timers and tokens plus the data-plane hops of the
   control packets (7 per session, 3 per refresh pass) and the boxed
   horizons handed to [Engine.run] — so the bounds are the words measured
   when the per-session state became flow-indexed; any closure, option or
   record that creeps back per message or per session crosses them. *)
let signaling_chain () =
  let engine = Engine.create () in
  let fab = Csz.Fabric.chain ~engine ~n_switches:5 () in
  (engine, Csz.Signaling.deploy ~fabric:fab ~refresh_interval:1000. ())

let predicted =
  Ispn_admission.Spec.Predicted
    {
      bucket = Ispn_admission.Spec.bucket ~rate_pps:20. ~depth_packets:5. ();
      target_delay = 0.256;
      target_loss = 0.01;
    }

(* Minor words per conforming [Token_bucket.police] call, the paper's
   edge filter: one engine event per packet, the event's own chain costs
   nothing (see the drain test), and the bucket refills a little on every
   call, so the clamp runs each time.  What is left is the clock read that
   [Engine.now] boxes (2 words).  2 measured; 6 with the clamp as a call
   ([Stdlib.min] or [Fcmp.fmin]: both floats boxed).  A boxed clamp, a
   boxed record field, an option or a closure per packet does not fit.
   Later changes may only lower it. *)
let police_budget = 2.

let test_police_budget () =
  let engine = Engine.create () in
  let module Tb = Ispn_traffic.Token_bucket in
  let bucket = Tb.create ~rate_bps:1e9 ~depth_bits:1e5 () in
  let passed = ref 0 in
  let p =
    Tb.policer ~engine ~bucket ~mode:Tb.Drop ~next:(fun _ -> incr passed)
  in
  let pkt = Packet.make ~flow:1 ~seq:0 ~size_bits:1000 ~created:0. () in
  let n = 50_000 in
  let count = ref 0 in
  let rec act () =
    incr count;
    Tb.police p pkt;
    if !count < n then ignore (Engine.schedule_after engine ~delay:1e-6 act)
  in
  ignore (Engine.schedule_after engine ~delay:1e-6 act);
  Engine.run engine ~until:1e-3;
  let before = Gc.minor_words () and fired = !count in
  Engine.run engine ~until:1.;
  let per = (Gc.minor_words () -. before) /. float_of_int (!count - fired) in
  Packet.free pkt;
  Alcotest.(check int) "every packet conformed" n !passed;
  if per > police_budget then
    Alcotest.failf
      "conforming police call: %.2f minor words (expected <= %.0f)" per
      police_budget

(* Measured 426.2 and 115.9. *)
let session_budget = 427.
let refresh_budget = 116.

let test_signaling_session_budget () =
  let engine, s = signaling_chain () in
  let established = ref 0 and sessions = ref 0 in
  let on_result = function Ok _ -> incr established | Error _ -> () in
  let session () =
    (* Ids recycle: the previous session's teardown has landed. *)
    let flow = !sessions mod 8 in
    incr sessions;
    Csz.Signaling.setup s ~flow ~ingress:0 ~egress:4 predicted
      ~sink:Packet.free ~on_result;
    Engine.run engine ~until:(Engine.now engine +. 0.05);
    Csz.Signaling.depart s ~flow;
    Engine.run engine ~until:(Engine.now engine +. 0.05)
  in
  let per = per_n session 2_000 in
  Alcotest.(check int) "every session established" !sessions !established;
  Alcotest.(check int) "every session departed" 0
    (Csz.Signaling.established_count s);
  if per > session_budget then
    Alcotest.failf
      "predicted 4-hop setup + confirm + depart: %.1f minor words (expected \
       <= %.0f)"
      per session_budget

let test_signaling_refresh_budget () =
  let engine, s = signaling_chain () in
  Csz.Signaling.setup s ~flow:1 ~ingress:0 ~egress:4 predicted
    ~sink:Packet.free ~on_result:(fun _ -> ());
  Engine.run engine ~until:0.05;
  Alcotest.(check int) "established" 1 (Csz.Signaling.established_count s);
  let pass () =
    Csz.Signaling.refresh_now s ~flow:1;
    Engine.run engine ~until:(Engine.now engine +. 0.01)
  in
  let per = per_n pass 2_000 in
  Alcotest.(check int) "three legs per pass" (3 * 2_001)
    (Csz.Signaling.refresh_packets_sent s);
  for link = 0 to 3 do
    Alcotest.(check int) "stamped" 1 (Csz.Signaling.soft_state_count s ~link)
  done;
  if per > refresh_budget then
    Alcotest.failf
      "refresh pass over 4 hops: %.1f minor words (expected <= %.0f)" per
      refresh_budget

let suite =
  [
    Alcotest.test_case "engine drain allocates nothing" `Quick
      test_engine_drain_zero_alloc;
    Alcotest.test_case "arena make+free allocates nothing" `Quick
      test_arena_take_release_zero_alloc;
    Alcotest.test_case "arena float stores are unboxed" `Quick
      test_arena_field_stores_zero_alloc;
    Alcotest.test_case "fifo cycle within interface budget" `Quick
      test_fifo_cycle_interface_budget;
    Alcotest.test_case "idpool cycle allocates nothing" `Quick
      test_idpool_cycle_zero_alloc;
    Alcotest.test_case "sched session open/close within budget" `Quick
      test_sched_session_open_close_budget;
    Alcotest.test_case "loghist add allocates nothing" `Quick
      test_loghist_add_zero_alloc;
    Alcotest.test_case "probe sink allocates nothing" `Quick
      test_probe_sink_zero_alloc;
    Alcotest.test_case "series dequeue tap allocates nothing" `Quick
      test_series_dequeue_tap_budget;
    Alcotest.test_case "stats add allocates nothing" `Quick
      test_stats_add_zero_alloc;
    Alcotest.test_case "switch forwarding allocates nothing" `Quick
      test_node_forward_zero_alloc;
    Alcotest.test_case "link hop within budget" `Quick test_link_hop_budget;
    Alcotest.test_case "link hop within budget, instruments off" `Quick
      test_link_hop_instr_off;
    Alcotest.test_case "onoff source allocates no closure per packet" `Quick
      test_onoff_no_closure_per_packet;
    Alcotest.test_case "conforming police call within budget" `Quick
      test_police_budget;
    Alcotest.test_case "signaling session within budget" `Quick
      test_signaling_session_budget;
    Alcotest.test_case "signaling refresh pass within budget" `Quick
      test_signaling_refresh_budget;
  ]
