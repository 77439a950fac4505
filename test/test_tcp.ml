open Ispn_sim
module Tcp = Ispn_transport.Tcp

(* A one-link network with a configurable buffer; TCP data flows across it,
   acks return out of band (Tcp's own ack_delay). *)
let make_net ?(buffer = 50) ?(rate_bps = 1e6) () =
  let engine = Engine.create () in
  let net =
    Network.chain ~engine ~n_switches:2 ~rate_bps
      ~qdisc_of:(fun _ ->
        Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:buffer) ())
      ()
  in
  (engine, net)

let make_conn ?(buffer = 50) () =
  let engine, net = make_net ~buffer () in
  let tcp =
    Tcp.create ~engine ~flow:1
      ~send:(fun p -> Network.inject net ~at_switch:0 p)
      ()
  in
  Network.install_flow net ~flow:1 ~ingress:0 ~egress:1
    ~sink:(fun p -> Tcp.receive tcp p);
  (engine, net, tcp)

(* The receiver alone, fed segments by hand: out-of-order segments wait
   for the gap below them, duplicates (held back or already delivered)
   count once, and the window ring keeps working after [rcv_next] has
   wrapped it several times. *)
let test_receiver_reorders () =
  let engine = Engine.create () in
  let tcp = Tcp.create ~engine ~flow:1 ~send:Packet.free () in
  let recv seq = Tcp.receive tcp (Packet.make ~flow:1 ~seq ~created:0. ()) in
  let check what n = Alcotest.(check int) what n (Tcp.delivered tcp) in
  List.iter recv [ 2; 1; 1; 3 ];
  check "held back behind the gap at 0" 0;
  recv 0;
  check "gap fill releases 0-3" 4;
  List.iter recv [ 0; 3; 5 ];
  check "duplicates below rcv_next ignored" 4;
  recv 5;
  check "duplicate held segment counted once" 4;
  recv 4;
  check "second gap filled" 6;
  (* Blocks of eight in reverse order wrap the ring nine times. *)
  let base = 6 in
  for b = 0 to 73 do
    for i = 7 downto 0 do
      recv (base + (8 * b) + i)
    done;
    check (Printf.sprintf "block %d" b) (base + (8 * (b + 1)))
  done;
  recv (base + 592 + 63);
  check "last slot of the window held" 598;
  for s = base + 592 to base + 592 + 62 do
    recv s
  done;
  check "whole window released" (base + 592 + 64);
  Engine.run engine ~until:1.

let test_transfers_lossless () =
  (* Buffer larger than the 64-segment receive window: no drops possible. *)
  let engine, net, tcp = make_conn ~buffer:100 () in
  Tcp.start tcp;
  Engine.run engine ~until:5.;
  Alcotest.(check int) "no buffer drops" 0 (Network.total_dropped net);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.retransmissions tcp);
  (* The link fits 1000 pkt/s; a healthy connection should deliver most of
     that once the window opens. *)
  if Tcp.delivered tcp < 4000 then
    Alcotest.failf "poor goodput: %d delivered in 5s" (Tcp.delivered tcp)

let test_slow_start_growth () =
  let engine, _, tcp = make_conn () in
  Tcp.start tcp;
  Engine.run engine ~until:0.1;
  if Tcp.cwnd tcp <= 1. then
    Alcotest.failf "cwnd did not grow: %.1f" (Tcp.cwnd tcp)

let test_recovers_from_drops () =
  (* A 5-packet buffer forces drops; the connection must keep delivering,
     in order, without duplication. *)
  let engine, net, tcp = make_conn ~buffer:5 () in
  Tcp.start tcp;
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "drops happened" true (Network.total_dropped net > 0);
  Alcotest.(check bool) "recovered and progressed" true
    (Tcp.delivered tcp > 1000);
  Alcotest.(check bool) "loss visible to sender" true
    (Tcp.retransmissions tcp > 0)

let test_delivery_bounded_by_sent () =
  let engine, _, tcp = make_conn ~buffer:5 () in
  Tcp.start tcp;
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "delivered <= distinct sent" true
    (Tcp.delivered tcp <= Tcp.segments_sent tcp - Tcp.retransmissions tcp + 1)

let test_utilizes_link () =
  let engine, net, tcp = make_conn () in
  Tcp.start tcp;
  Engine.run engine ~until:10.;
  let util = Network.utilization net ~link:0 ~elapsed:10. in
  if util < 0.9 then Alcotest.failf "TCP left link underused: %.2f" util

let test_goodput_accounting () =
  let engine, _, tcp = make_conn () in
  Tcp.start tcp;
  Engine.run engine ~until:2.;
  let g = Tcp.goodput_bps tcp ~elapsed:2. in
  Alcotest.(check (float 1.)) "goodput = delivered * bits / t"
    (float_of_int (Tcp.delivered tcp) *. 1000. /. 2.)
    g

let test_two_connections_share () =
  (* Two TCPs over one link should each get a nontrivial share. *)
  let engine, net = make_net () in
  let mk flow =
    let tcp =
      Tcp.create ~engine ~flow
        ~send:(fun p -> Network.inject net ~at_switch:0 p)
        ()
    in
    Network.install_flow net ~flow ~ingress:0 ~egress:1
      ~sink:(fun p -> Tcp.receive tcp p);
    tcp
  in
  let a = mk 1 and b = mk 2 in
  Tcp.start a;
  Tcp.start b;
  Engine.run engine ~until:10.;
  let da = Tcp.delivered a and db = Tcp.delivered b in
  if da = 0 || db = 0 then Alcotest.failf "starvation: %d vs %d" da db

let suite =
  [
    Alcotest.test_case "receiver reorders and drops duplicates" `Quick
      test_receiver_reorders;
    Alcotest.test_case "transfers lossless" `Quick test_transfers_lossless;
    Alcotest.test_case "slow start growth" `Quick test_slow_start_growth;
    Alcotest.test_case "recovers from drops" `Quick test_recovers_from_drops;
    Alcotest.test_case "delivery bounded by sent" `Quick
      test_delivery_bounded_by_sent;
    Alcotest.test_case "utilizes link" `Quick test_utilizes_link;
    Alcotest.test_case "goodput accounting" `Quick test_goodput_accounting;
    Alcotest.test_case "two connections share" `Quick
      test_two_connections_share;
  ]
