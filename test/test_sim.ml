(* Packet, Qdisc pools, Link, Node, Network, Probe and the link's
   flight-recorder event stream. *)
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

(* --- Node --- *)

let test_node_routes_and_counts () =
  let node = Node.create ~name:"S" in
  let got = ref [] in
  Node.add_route node ~flow:1 (Node.Deliver (fun p -> got := (Packet.flow p) :: !got));
  let p = mk_packet ~flow:1 () in
  Node.receive node p;
  Alcotest.(check (list int)) "delivered" [ 1 ] !got;
  Alcotest.(check int) "hop counted" 1 (Packet.hops p);
  Alcotest.(check int) "received" 1 (Node.received node)

let test_node_unknown_flow () =
  (* A flow routed nowhere, and one routed only at another switch: its
     route index falls inside this switch's port array, and beyond the
     empty array of a switch with no routes. *)
  let s = Node.create ~name:"S" and t = Node.create ~name:"T" in
  let e = Node.create ~name:"E" in
  Node.add_route t ~flow:9_001 (Node.Deliver Packet.free);
  Node.add_route s ~flow:9_002 (Node.Deliver Packet.free);
  let fails node name flow =
    Alcotest.check_raises "no route"
      (Failure (Printf.sprintf "Node %s: no route for flow %d" name flow))
      (fun () -> Node.receive node (mk_packet ~flow ()))
  in
  fails s "S" 9;
  fails s "S" 9_001;
  fails e "E" 9_001

let test_node_small_and_large_ids () =
  let node = Node.create ~name:"S" in
  let got = ref [] in
  let sink p =
    got := Packet.flow p :: !got;
    Packet.free p
  in
  Node.add_route node ~flow:2 (Node.Deliver sink);
  Node.add_route node ~flow:900_017 (Node.Deliver sink);
  Node.receive node (mk_packet ~flow:900_017 ());
  Node.receive node (mk_packet ~flow:2 ());
  Node.receive node (mk_packet ~flow:900_017 ());
  Alcotest.(check (list int)) "delivered" [ 900_017; 2; 900_017 ] !got

let test_node_packet_made_before_route () =
  let a = Node.create ~name:"A" and b = Node.create ~name:"B" in
  let got = ref 0 in
  let p = mk_packet ~flow:31 () in
  (* Refused while unrouted, forwarded once the route exists. *)
  Alcotest.check_raises "unrouted" (Failure "Node A: no route for flow 31")
    (fun () -> Node.receive a p);
  Node.add_route a ~flow:31 (Node.Deliver (fun p -> Node.receive b p));
  Node.add_route b ~flow:31 (Node.Deliver (fun _ -> incr got));
  Node.receive a p;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "hops" 3 (Packet.hops p)

let test_node_overwrite_reroutes_in_flight () =
  let engine = Engine.create () in
  let a = Node.create ~name:"A" and b = Node.create ~name:"B" in
  let ab = make_link engine () in
  let out1 = make_link engine () and out2 = make_link engine () in
  let via1 = ref [] and via2 = ref [] in
  Link.set_receiver ab (fun p -> Node.receive b p);
  Link.set_receiver out1 (fun p -> via1 := Packet.seq p :: !via1);
  Link.set_receiver out2 (fun p -> via2 := Packet.seq p :: !via2);
  Node.add_route a ~flow:7 (Node.Forward ab);
  Node.add_route b ~flow:7 (Node.Forward out1);
  Node.receive a (mk_packet ~flow:7 ~seq:0 ());
  Node.receive a (mk_packet ~flow:7 ~seq:1 ());
  (* 1 ms per packet: at 1.5 ms packet 0 has left B on [out1] and packet
     1, resolved at A, is on the wire to B. *)
  Engine.run engine ~until:0.0015;
  Node.add_route b ~flow:7 (Node.Forward out2);
  Engine.run engine ~until:1.;
  Alcotest.(check (list int)) "before the overwrite" [ 0 ] !via1;
  Alcotest.(check (list int)) "after the overwrite" [ 1 ] !via2

let test_node_unrouted_ids_do_not_grow_index () =
  (* A corrupted decode yields packets of many distinct unrouted ids.
     Route indices are read here only to compare them: two flows routed
     around 10 000 failed lookups get consecutive indices. *)
  let node = Node.create ~name:"S" in
  let pa = Packet.arena () in
  let index_of flow =
    let r = ref (-1) in
    Node.add_route node ~flow (Node.Deliver (fun p -> r := pa.Packet.route.(p)));
    let p = mk_packet ~flow () in
    Node.receive node p;
    Packet.free p;
    !r
  in
  let r1 = index_of 987_654_001 in
  for i = 1 to 10_000 do
    let p = mk_packet ~flow:(123_000_000 + i) () in
    (try Node.receive node p with Failure _ -> ());
    Alcotest.(check int) "unresolved" (-1) pa.Packet.route.(p);
    Packet.free p
  done;
  Alcotest.(check int) "next index" (r1 + 1) (index_of 987_654_002)

(* --- Network + Probe --- *)

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
  Link.create ~engine ~rate_bps:1e6 ~id:3 ~recorder ~qdisc ~name:"rec" ()

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

let test_recorder_clear () =
  let engine = Engine.create () in
  let r = Recorder.create ~capacity:16 () in
  let link = make_recorded_link engine r ~pool_capacity:10 in
  Link.set_receiver link (fun _ -> ());
  Link.send link (mk_packet ());
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "recorded something" true (Recorder.length r > 0);
  Recorder.clear r;
  Alcotest.(check int) "cleared" 0 (Recorder.length r);
  Alcotest.(check int) "capacity unchanged" 16 (Recorder.capacity r)

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
    Alcotest.test_case "node unrouted flow ids do not grow the route index"
      `Quick test_node_unrouted_ids_do_not_grow_index;
    Alcotest.test_case "network chain end to end" `Quick
      test_network_chain_end_to_end;
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
    Alcotest.test_case "recorder clear" `Quick test_recorder_clear;
  ]
