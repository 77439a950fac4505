(* Packet, Qdisc pools, Link, Network and its forwarding table, Probe and
   the link's flight-recorder event stream. *)
open Ispn_sim

let mk_packet ?(flow = 0) ?(seq = 0) ?(created = 0.) () =
  Packet.make ~flow ~seq ~created ()

(* --- Packet --- *)

let test_packet_defaults () =
  let p = mk_packet () in
  Alcotest.(check int) "size" Ispn_util.Units.packet_bits (Packet.size_bits p);
  Alcotest.(check (float 0.)) "offset" 0. (Packet.offset p);
  Alcotest.(check (float 0.)) "qdelay" 0. (Packet.qdelay_total p);
  Alcotest.(check int) "hops" 0 (Packet.hops p)

(* --- Qdisc pool --- *)

let test_pool_capacity () =
  let pool = Qdisc.pool ~capacity:2 in
  Alcotest.(check bool) "take 1" true (Qdisc.pool_take pool);
  Alcotest.(check bool) "take 2" true (Qdisc.pool_take pool);
  Alcotest.(check bool) "take 3 fails" false (Qdisc.pool_take pool);
  Qdisc.pool_release pool;
  Alcotest.(check bool) "take after release" true (Qdisc.pool_take pool);
  Alcotest.(check int) "in use" 2 (Qdisc.pool_in_use pool);
  Alcotest.(check int) "capacity" 2 (Qdisc.pool_capacity pool)

let test_unbounded_pool () =
  let pool = Qdisc.unbounded_pool () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "take" true (Qdisc.pool_take pool)
  done

(* --- Link --- *)

let make_link engine ?(rate_bps = 1e6) ?(prop_delay = 0.) () =
  let pool = Qdisc.pool ~capacity:10 in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  Link.create ~engine ~rate_bps ~prop_delay ~qdisc ~name:"test" ()

let test_link_serializes_at_rate () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let arrivals = ref [] in
  Link.set_receiver link (fun _ -> arrivals := Engine.now engine :: !arrivals);
  (* Three 1000-bit packets at 1 Mbit/s: finish at 1, 2, 3 ms. *)
  for i = 0 to 2 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:1.;
  let times = List.rev !arrivals in
  Alcotest.(check int) "delivered" 3 (List.length times);
  List.iteri
    (fun i t ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "packet %d" i)
        (0.001 *. float_of_int (i + 1))
        t)
    times

let test_link_propagation_delay () =
  let engine = Engine.create () in
  let link = make_link engine ~prop_delay:0.5 () in
  let arrival = ref nan in
  Link.set_receiver link (fun _ -> arrival := Engine.now engine);
  Link.send link (mk_packet ());
  Engine.run engine ~until:1.;
  Alcotest.(check (float 1e-9)) "tx + prop" 0.501 !arrival

let test_link_accumulates_qdelay () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let delays = ref [] in
  Link.set_receiver link (fun p ->
      delays := (Packet.qdelay_total p) :: !delays);
  for i = 0 to 2 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:1.;
  (* Packet 0 waits 0; packet 1 waits one transmission; packet 2 two. *)
  Alcotest.(check (list (float 1e-9)))
    "waits" [ 0.; 0.001; 0.002 ] (List.rev !delays)

let test_link_drops_on_full_buffer () =
  let engine = Engine.create () in
  let pool = Qdisc.pool ~capacity:2 in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  let link =
    Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"small" ()
  in
  Link.set_receiver link (fun _ -> ());
  (* First packet goes straight to the transmitter, freeing its buffer slot;
     2 more fit in the queue; the rest drop. *)
  for i = 0 to 5 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Alcotest.(check int) "dropped count" 3 (Link.dropped link);
  Engine.run engine ~until:1.;
  Alcotest.(check int) "sent" 3 (Link.sent link)

(* Wire order.  A link serializes one packet at a time and every packet
   spends the same [prop_delay] on the wire, so deliveries come out in
   transmission order at finish + prop_delay.  A failure loses only the
   frame being serialized: packets already on the wire still arrive. *)

let collect_link link engine =
  let got = ref [] and drops = ref [] in
  Link.set_receiver link (fun p ->
      got := (Packet.seq p, Engine.now engine) :: !got);
  Link.set_tap link
    (Tap.make
       ~on_drop:(fun ~link:_ ~now:_ ~cause p ->
         drops := (Packet.seq p, cause) :: !drops)
       ());
  (got, drops)

let check_arrivals name expected got =
  Alcotest.(check (list int))
    (name ^ " order") (List.map fst expected) (List.rev_map fst !got);
  List.iter2
    (fun (seq, want) (_, t) ->
      Alcotest.(check (float 1e-12)) (Printf.sprintf "%s seq %d" name seq) want t)
    expected (List.rev !got)

let test_link_down_keeps_wire_order () =
  let engine = Engine.create () in
  let link = make_link engine ~prop_delay:0.005 () in
  let got, drops = collect_link link engine in
  (* 1 ms per packet: seqs 0-2 finish at 1, 2, 3 ms and are on the wire
     when the link fails at 3.5 ms, half-way through seq 3. *)
  for i = 0 to 4 do
    Link.send link (mk_packet ~seq:i ())
  done;
  ignore (Engine.schedule engine ~at:0.0035 (fun () -> Link.set_up link false));
  Engine.run engine ~until:0.02;
  check_arrivals "down" [ (0, 0.006); (1, 0.007); (2, 0.008) ] got;
  Alcotest.(check bool)
    "transmitting frame lost as Down" true
    (!drops = [ (3, Ispn_obs.Recorder.Down) ]);
  Alcotest.(check int) "drops_down" 1 (Link.drops_down link);
  Alcotest.(check int) "sent" 3 (Link.sent link);
  (* Repair: the backlog (seq 4) goes out behind the restored wire. *)
  Link.set_up link true;
  Link.send link (mk_packet ~seq:5 ());
  Engine.run engine ~until:0.04;
  check_arrivals "repaired"
    [ (0, 0.006); (1, 0.007); (2, 0.008); (4, 0.026); (5, 0.027) ]
    got

let test_link_wire_filter_keeps_wire_order () =
  (* A wire filter runs at delivery, after propagation: it drops odd seqs
     as Wire losses and may rewrite the packets it passes.  (With
     [prop_delay = 0] delivery is synchronous with the end of
     serialization; "link serializes at rate" pins that.) *)
  let engine = Engine.create () in
  let link = make_link engine ~prop_delay:0.01 () in
  let got, drops = collect_link link engine in
  let hops = ref [] in
  Link.set_wire_filter link (fun p ->
      if Packet.seq p land 1 = 1 then None
      else begin
        Packet.set_hops p 7;
        Some p
      end);
  Link.set_receiver link (fun p ->
      hops := Packet.hops p :: !hops;
      got := (Packet.seq p, Engine.now engine) :: !got);
  for i = 0 to 4 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:1.;
  check_arrivals "filtered" [ (0, 0.011); (2, 0.013); (4, 0.015) ] got;
  Alcotest.(check (list int)) "rewritten" [ 7; 7; 7 ] !hops;
  Alcotest.(check bool)
    "odd seqs lost on the wire" true
    (List.rev !drops
    = [ (1, Ispn_obs.Recorder.Wire); (3, Ispn_obs.Recorder.Wire) ]);
  Alcotest.(check int) "drops_wire" 2 (Link.drops_wire link);
  Alcotest.(check int) "sent counts the wire" 5 (Link.sent link)

let test_link_utilization () =
  let engine = Engine.create () in
  let link = make_link engine () in
  Link.set_receiver link (fun _ -> ());
  for i = 0 to 4 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:0.010;
  (* 5 ms busy of 10 ms elapsed. *)
  Alcotest.(check (float 1e-9)) "utilization" 0.5
    (Link.utilization link ~elapsed:0.010)

let test_link_requires_receiver () =
  let engine = Engine.create () in
  let link = make_link engine () in
  Link.send link (mk_packet ());
  try
    Engine.run engine ~until:1.;
    Alcotest.fail "expected Failure"
  with Failure _ -> ()

(* --- Forwarding, through Network --- *)

let fifo_of _ = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:10) ()

(* [n_switches] switches joined by [links], 1 ms per packet on each. *)
let net engine ?(links = []) n_switches =
  Network.create ~engine ~n_switches ~links ~rate_bps:1e6 ~qdisc_of:fifo_of
    ()

let test_node_routes_and_counts () =
  let n = net (Engine.create ()) 1 in
  let got = ref [] in
  Network.install_flow n ~flow:1 ~ingress:0 ~egress:0 ~sink:(fun p ->
      got := Packet.flow p :: !got);
  let p = mk_packet ~flow:1 () in
  Network.inject n ~at_switch:0 p;
  Alcotest.(check (list int)) "delivered" [ 1 ] !got;
  Alcotest.(check int) "hop counted" 1 (Packet.hops p)

let test_node_unknown_flow () =
  (* A flow routed nowhere, and one routed only at another switch: its
     slot falls inside this switch's row, and beyond the empty row of a
     switch with no routes. *)
  let n = net (Engine.create ()) 3 in
  Network.install_flow n ~flow:9_001 ~ingress:1 ~egress:1 ~sink:Packet.free;
  Network.install_flow n ~flow:9_002 ~ingress:0 ~egress:0 ~sink:Packet.free;
  let fails sw flow =
    Alcotest.check_raises "no route"
      (Failure
         (Printf.sprintf "Switch S-%d: no route for flow %d" (sw + 1) flow))
      (fun () -> Network.inject n ~at_switch:sw (mk_packet ~flow ()))
  in
  fails 0 9;
  fails 0 9_001;
  fails 2 9_001

let test_node_small_and_large_ids () =
  let n = net (Engine.create ()) 1 in
  let got = ref [] in
  let sink p =
    got := Packet.flow p :: !got;
    Packet.free p
  in
  Network.install_flow n ~flow:2 ~ingress:0 ~egress:0 ~sink;
  Network.install_flow n ~flow:900_017 ~ingress:0 ~egress:0 ~sink;
  List.iter
    (fun flow -> Network.inject n ~at_switch:0 (mk_packet ~flow ()))
    [ 900_017; 2; 900_017 ];
  Alcotest.(check (list int)) "delivered" [ 900_017; 2; 900_017 ] !got

let test_node_packet_made_before_route () =
  let engine = Engine.create () in
  let n = net engine ~links:[ (0, 1) ] 2 in
  let got = ref 0 in
  let p = mk_packet ~flow:31 () in
  (* Refused while unrouted, forwarded once the route exists. *)
  Alcotest.check_raises "unrouted"
    (Failure "Switch S-1: no route for flow 31")
    (fun () -> Network.inject n ~at_switch:0 p);
  Network.install_flow n ~flow:31 ~ingress:0 ~egress:1 ~sink:(fun _ ->
      incr got);
  Network.inject n ~at_switch:0 p;
  Engine.run engine ~until:1.;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "hops" 3 (Packet.hops p)

(* A (0) -> B (1), then B -> C (2) or B -> D (3). *)
let fork engine = net engine ~links:[ (0, 1); (1, 2); (1, 3) ] 4

let test_node_overwrite_reroutes_in_flight () =
  let engine = Engine.create () in
  let n = fork engine in
  let via_c = ref [] and via_d = ref [] in
  let into r p = r := Packet.seq p :: !r in
  Network.install_flow n ~flow:7 ~ingress:0 ~egress:2 ~sink:(into via_c);
  Network.inject n ~at_switch:0 (mk_packet ~flow:7 ~seq:0 ());
  Network.inject n ~at_switch:0 (mk_packet ~flow:7 ~seq:1 ());
  (* 1 ms per packet: at 1.5 ms packet 0 has left B towards C and packet
     1, resolved at A, is on the wire to B. *)
  Engine.run engine ~until:0.0015;
  Network.install_flow n ~flow:7 ~ingress:0 ~egress:3 ~sink:(into via_d);
  Engine.run engine ~until:1.;
  Alcotest.(check (list int)) "before the overwrite" [ 0 ] !via_c;
  Alcotest.(check (list int)) "after the overwrite" [ 1 ] !via_d

let test_node_reinstall_keeps_old_sink () =
  (* Re-installed with a new egress (B instead of C) while packet 0 is
     on the wire from B to C: C still holds the sink it was given. *)
  let engine = Engine.create () in
  let n = fork engine in
  let old_sink = ref [] and new_sink = ref [] in
  let into r p = r := Packet.seq p :: !r in
  Network.install_flow n ~flow:7 ~ingress:0 ~egress:2 ~sink:(into old_sink);
  Network.inject n ~at_switch:0 (mk_packet ~flow:7 ~seq:0 ());
  Engine.run engine ~until:0.0015;
  Network.install_flow n ~flow:7 ~ingress:0 ~egress:1 ~sink:(into new_sink);
  Network.inject n ~at_switch:0 (mk_packet ~flow:7 ~seq:1 ());
  Engine.run engine ~until:1.;
  Alcotest.(check (list int)) "in flight, old egress" [ 0 ] !old_sink;
  Alcotest.(check (list int)) "after, new egress" [ 1 ] !new_sink

let test_node_unrouted_ids_do_not_grow_index () =
  (* A corrupted decode yields packets of many distinct unrouted ids.
     Slots are read here only to compare them: two flows routed around
     10 000 failed lookups get consecutive slots. *)
  let n = net (Engine.create ()) 1 in
  let pa = Packet.arena () in
  let slot_of flow =
    let r = ref (-1) in
    Network.install_flow n ~flow ~ingress:0 ~egress:0 ~sink:(fun p ->
        r := pa.Packet.route.(p));
    let p = mk_packet ~flow () in
    Network.inject n ~at_switch:0 p;
    Packet.free p;
    !r
  in
  let r1 = slot_of 987_654_001 in
  for i = 1 to 10_000 do
    let p = mk_packet ~flow:(123_000_000 + i) () in
    (try Network.inject n ~at_switch:0 p with Failure _ -> ());
    Alcotest.(check int) "unresolved" (-1) pa.Packet.route.(p);
    Packet.free p
  done;
  Alcotest.(check int) "next slot" (r1 + 1) (slot_of 987_654_002)

(* --- Network + Probe --- *)

(* A forwarding table belongs to its network: after a finished run that
   routed 50 flows on this domain, a fresh network gives its first flow
   slot 0, as a fresh domain would.  Slots are read here only to compare
   them. *)
let test_network_fresh_route_index () =
  let run flows =
    let engine = Engine.create () in
    let net =
      Network.chain ~engine ~n_switches:3 ~rate_bps:1e6
        ~qdisc_of:(fun _ ->
          Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:100) ())
        ()
    in
    let pa = Packet.arena () and routes = ref [] in
    List.iter
      (fun flow ->
        Network.install_flow net ~flow ~ingress:0 ~egress:2 ~sink:(fun p ->
            routes := pa.Packet.route.(p) :: !routes;
            Packet.free p);
        Network.inject net ~at_switch:0 (mk_packet ~flow ()))
      flows;
    Engine.run engine ~until:1.;
    List.rev !routes
  in
  Alcotest.(check (list int)) "first run" (List.init 50 Fun.id)
    (run (List.init 50 (fun i -> 1_000 + i)));
  Alcotest.(check (list int)) "fresh network" [ 0 ] (run [ 77 ])

let test_network_chain_end_to_end () =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:3 ~rate_bps:1e6
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:10) ())
      ()
  in
  let probe = Probe.create () in
  let arrived = ref nan in
  Network.install_flow net ~flow:5 ~ingress:0 ~egress:2 ~sink:(fun p ->
      arrived := Engine.now engine;
      Probe.sink probe ~engine p);
  Network.inject net ~at_switch:0 (mk_packet ~flow:5 ());
  Engine.run engine ~until:1.;
  Alcotest.(check int) "received" 1 (Probe.received probe);
  (* Two links traversed, no queueing: created at 0, delivered after 2
     transmission times. *)
  Alcotest.(check (float 1e-9)) "latency" 0.002 !arrived;
  Alcotest.(check (float 1e-9)) "no queueing" 0.
    (Ispn_util.Fvec.get (Probe.qdelays probe) 0)

let test_network_zero_length_path () =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:2 ~rate_bps:1e6
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:10) ())
      ()
  in
  let got = ref 0 in
  Network.install_flow net ~flow:1 ~ingress:0 ~egress:0
    ~sink:(fun _ -> incr got);
  Network.inject net ~at_switch:0 (mk_packet ~flow:1 ());
  Alcotest.(check int) "delivered locally" 1 !got

let test_network_bad_path_rejected () =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:2 ~rate_bps:1e6
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:10) ())
      ()
  in
  try
    Network.install_flow net ~flow:1 ~ingress:0 ~egress:5 ~sink:(fun _ -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_probe_units () =
  let engine = Engine.create () in
  let probe = Probe.create () in
  let p = mk_packet () in
  Packet.set_qdelay_total p (0.004);
  Probe.sink probe ~engine p;
  (* 4 ms = 4 packet transmission times at the default configuration. *)
  Alcotest.(check (float 1e-9)) "mean in units" 4. (Probe.mean_qdelay probe);
  Alcotest.(check (float 1e-9)) "max in units" 4. (Probe.max_qdelay probe)

(* --- Flight recorder events from the link --- *)

module Recorder = Ispn_obs.Recorder

let make_recorded_link engine recorder ~pool_capacity =
  let pool = Qdisc.pool ~capacity:pool_capacity in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  let link = Link.create ~engine ~rate_bps:1e6 ~id:3 ~qdisc ~name:"rec" () in
  Link.attach_recorder link recorder;
  link

let test_recorder_link_events () =
  let engine = Engine.create () in
  let r = Recorder.create ~capacity:16 () in
  let link = make_recorded_link engine r ~pool_capacity:10 in
  Link.set_receiver link (fun _ -> ());
  let p = mk_packet ~flow:7 ~seq:9 () in
  (* Pretend an upstream hop already queued it for 2 ms. *)
  Packet.set_qdelay_total p (0.002);
  Link.send link p;
  Engine.run engine ~until:1.;
  let evs = Recorder.events r in
  Alcotest.(check (list string)) "lifecycle"
    [ "enqueue"; "dequeue"; "tx-start"; "deliver" ]
    (List.map (fun (e : Recorder.event) -> Recorder.kind_name e.kind) evs);
  List.iter
    (fun (e : Recorder.event) ->
      Alcotest.(check int) "hop id" 3 e.link;
      Alcotest.(check int) "flow" 7 e.flow;
      Alcotest.(check int) "seq" 9 e.seq)
    evs;
  match evs with
  | [ enq; deq; tx; dlv ] ->
      Alcotest.(check (float 1e-12)) "enqueue carries upstream qdelay" 0.002
        enq.Recorder.value;
      Alcotest.(check (float 1e-12)) "idle link: zero wait" 0.
        deq.Recorder.value;
      Alcotest.(check (float 1e-12)) "tx time" 0.001 tx.Recorder.value;
      Alcotest.(check (float 1e-12)) "deliver carries cumulative qdelay"
        0.002 dlv.Recorder.value
  | _ -> Alcotest.fail "expected exactly four events"

let test_recorder_drop_causes () =
  let engine = Engine.create () in
  let r = Recorder.create ~capacity:32 () in
  let link = make_recorded_link engine r ~pool_capacity:2 in
  Link.set_receiver link (fun _ -> ());
  (* seq 0 starts transmitting (releasing its buffer), 1 and 2 queue,
     3 overflows the 2-packet pool. *)
  for i = 0 to 3 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:0.0005;
  (* seq 0 is mid-flight: taking the link down loses it. *)
  Link.set_up link false;
  Engine.run engine ~until:0.01;
  let drops =
    List.filter (fun (e : Recorder.event) -> e.kind = Recorder.Drop)
      (Recorder.events r)
  in
  Alcotest.(check (list string)) "drop causes in time order"
    [ "buffer"; "down" ]
    (List.map (fun (e : Recorder.event) -> Recorder.cause_name e.cause) drops);
  Alcotest.(check (list int)) "dropped seqs" [ 3; 0 ]
    (List.map (fun (e : Recorder.event) -> e.seq) drops);
  Alcotest.(check int) "buffer counter" 1 (Link.drops_buffer link);
  Alcotest.(check int) "down counter" 1 (Link.drops_down link);
  Alcotest.(check int) "total" 2 (Link.dropped link)

let test_link_wait_stats () =
  let engine = Engine.create () in
  let link = make_link engine () in
  Link.set_receiver link (fun _ -> ());
  for i = 0 to 2 do
    Link.send link (mk_packet ~seq:i ())
  done;
  Engine.run engine ~until:1.;
  let stats = Link.wait_stats link in
  Alcotest.(check int) "three waits recorded" 3
    (Ispn_util.Stats.count stats);
  (* Waits 0, 1 ms, 2 ms: mean 1 ms. *)
  Alcotest.(check (float 1e-9)) "mean wait" 0.001
    (Ispn_util.Stats.mean stats)

let suite =
  [
    Alcotest.test_case "packet defaults" `Quick test_packet_defaults;
    Alcotest.test_case "pool capacity" `Quick test_pool_capacity;
    Alcotest.test_case "unbounded pool" `Quick test_unbounded_pool;
    Alcotest.test_case "link serializes at rate" `Quick
      test_link_serializes_at_rate;
    Alcotest.test_case "link propagation delay" `Quick
      test_link_propagation_delay;
    Alcotest.test_case "link accumulates qdelay" `Quick
      test_link_accumulates_qdelay;
    Alcotest.test_case "link drops on full buffer" `Quick
      test_link_drops_on_full_buffer;
    Alcotest.test_case "link utilization" `Quick test_link_utilization;
    Alcotest.test_case "link down mid-transmission keeps wire order" `Quick
      test_link_down_keeps_wire_order;
    Alcotest.test_case "link wire filter keeps wire order" `Quick
      test_link_wire_filter_keeps_wire_order;
    Alcotest.test_case "link requires receiver" `Quick
      test_link_requires_receiver;
    Alcotest.test_case "node routes and counts" `Quick
      test_node_routes_and_counts;
    Alcotest.test_case "node unknown flow" `Quick test_node_unknown_flow;
    Alcotest.test_case "node routes small and large flow ids" `Quick
      test_node_small_and_large_ids;
    Alcotest.test_case "node forwards a packet made before its route" `Quick
      test_node_packet_made_before_route;
    Alcotest.test_case "node route overwrite reroutes packets in flight"
      `Quick test_node_overwrite_reroutes_in_flight;
    Alcotest.test_case "node re-install keeps the old egress's sink" `Quick
      test_node_reinstall_keeps_old_sink;
    Alcotest.test_case "node unrouted flow ids do not grow the route index"
      `Quick test_node_unrouted_ids_do_not_grow_index;
    Alcotest.test_case "network chain end to end" `Quick
      test_network_chain_end_to_end;
    Alcotest.test_case "network fresh route index" `Quick
      test_network_fresh_route_index;
    Alcotest.test_case "network zero-length path" `Quick
      test_network_zero_length_path;
    Alcotest.test_case "network bad path rejected" `Quick
      test_network_bad_path_rejected;
    Alcotest.test_case "probe units" `Quick test_probe_units;
    Alcotest.test_case "recorder link events" `Quick
      test_recorder_link_events;
    Alcotest.test_case "recorder drop causes" `Quick
      test_recorder_drop_causes;
    Alcotest.test_case "link wait stats" `Quick test_link_wait_stats;
  ]
