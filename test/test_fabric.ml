open Ispn_sim
module Fabric = Csz.Fabric
module Service = Csz.Service
module Spec = Ispn_admission.Spec

let test_chain_paths () =
  let engine = Engine.create () in
  let f = Fabric.chain ~engine ~n_switches:4 () in
  Alcotest.(check int) "links" 3 (Fabric.n_links f);
  Alcotest.(check (option (list int))) "0->3" (Some [ 0; 1; 2 ])
    (Fabric.path f ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "1->2" (Some [ 1 ])
    (Fabric.path f ~ingress:1 ~egress:2);
  Alcotest.(check (option (list int))) "self" (Some [])
    (Fabric.path f ~ingress:2 ~egress:2);
  Alcotest.(check (option (list int))) "backwards is unroutable" None
    (Fabric.path f ~ingress:3 ~egress:0)

(* One error contract on every shape: a pair with no route is a [Failure],
   even when the fabric is a chain and the pair merely runs backwards. *)
let test_chain_backwards_fails () =
  let engine = Engine.create () in
  let f = Fabric.chain ~engine ~n_switches:4 () in
  try
    Fabric.install_flow f ~flow:1 ~ingress:3 ~egress:0 ~sink:(fun _ -> ());
    Alcotest.fail "expected Failure"
  with Failure _ -> ()

(* Diamond: 0 -> 1 -> 3 and 0 -> 2 -> 3. *)
let diamond engine =
  Fabric.topology ~engine ~n_switches:4
    ~links:[ (0, 1); (1, 3); (0, 2); (2, 3) ]
    ()

let test_topology_paths () =
  let engine = Engine.create () in
  let f = diamond engine in
  Alcotest.(check int) "links" 4 (Fabric.n_links f);
  (* Shortest path ties break toward switch 1 (lower id): links 0 then 1. *)
  Alcotest.(check (option (list int))) "0->3" (Some [ 0; 1 ])
    (Fabric.path f ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "unreachable" None
    (Fabric.path f ~ingress:3 ~egress:0)

let test_topology_delivery () =
  let engine = Engine.create () in
  let f = diamond engine in
  let got = ref 0 in
  Fabric.install_flow f ~flow:9 ~ingress:0 ~egress:3 ~sink:(fun _ -> incr got);
  Fabric.inject f ~at_switch:0 (Packet.make ~flow:9 ~seq:0 ~created:0. ());
  Engine.run engine ~until:1.;
  Alcotest.(check int) "delivered over two hops" 1 !got

(* Mesh links are numbered like chain links, so instrumenting every one of
   them registers distinct [link.<i>] names. *)
let test_topology_link_ids () =
  let engine = Engine.create () in
  let f = diamond engine in
  let instr = Csz.Instr.create ~check:false ~metrics:true ~series:false in
  for i = 0 to Fabric.n_links f - 1 do
    Csz.Instr.attach_link instr (Fabric.link f i)
  done;
  Alcotest.(check (list int)) "distinct ids" [ 0; 1; 2; 3 ]
    (List.init (Fabric.n_links f) (fun i -> Link.id (Fabric.link f i)));
  let names =
    List.map fst (Ispn_obs.Metrics.snapshot (Option.get (Csz.Instr.metrics instr)))
  in
  for i = 0 to 3 do
    let sent = Printf.sprintf "link.%d.sent" i in
    Alcotest.(check bool) sent true (List.mem sent names)
  done

let test_service_over_topology () =
  let engine = Engine.create () in
  let f = diamond engine in
  let svc = Service.create_on ~fabric:f () in
  let got = ref 0 in
  match
    Service.request svc ~flow:1 ~ingress:0 ~egress:3
      ~own_bucket:(Spec.bucket ~rate_pps:100. ~depth_packets:10. ())
      (Spec.Guaranteed { clock_rate_bps = 100_000. })
      ~sink:(fun _ -> incr got)
  with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok est ->
      (* Reservation lands on exactly the links of the shortest path. *)
      Alcotest.(check (float 1e-6)) "link 0 reserved" 100_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:0));
      Alcotest.(check (float 1e-6)) "link 1 reserved" 100_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:1));
      Alcotest.(check (float 1e-6)) "off-path link untouched" 0.
        (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched f ~link:2));
      (* The bound reflects the 2-hop path: (10 + 1 pkts) / 100 pkt/s. *)
      (match est.Service.advertised_bound with
      | Some b -> Alcotest.(check (float 1e-6)) "P-G bound" 0.11 b
      | None -> Alcotest.fail "expected bound");
      est.Service.emit (Packet.make ~flow:1 ~seq:0 ~created:0. ());
      Engine.run engine ~until:1.;
      Alcotest.(check int) "delivered" 1 !got

let test_service_no_route () =
  let engine = Engine.create () in
  let f = diamond engine in
  let svc = Service.create_on ~fabric:f () in
  match
    Service.request svc ~flow:1 ~ingress:3 ~egress:0 Spec.Datagram
      ~sink:(fun _ -> ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "routed the unroutable"

let suite =
  [
    Alcotest.test_case "chain paths" `Quick test_chain_paths;
    Alcotest.test_case "chain backwards fails" `Quick
      test_chain_backwards_fails;
    Alcotest.test_case "topology paths" `Quick test_topology_paths;
    Alcotest.test_case "topology link ids" `Quick test_topology_link_ids;
    Alcotest.test_case "topology delivery" `Quick test_topology_delivery;
    Alcotest.test_case "service over topology" `Quick
      test_service_over_topology;
    Alcotest.test_case "service no route" `Quick test_service_no_route;
  ]
