(* The CSZ architecture beyond the chain: a routed mesh.

   Figure 1 is a straight line, but nothing in the architecture needs that.
   Here a small ISP mesh connects four sites; every output link runs the
   unified scheduler, shortest-path routing picks flow paths, and the
   service layer does per-link admission along whatever path routing
   chooses.

        S1 ------ S2
         \       /  \
          \     /    S4
           \   /    /
            S3 ----/

   A three-way video conference pins guaranteed service between the sites;
   bursty predicted-service data shares the links; a datagram backup job
   soaks up the rest.

   Run with: dune exec examples/mesh_conference.exe *)

open Ispn_sim
module Fabric = Csz.Fabric
module Service = Csz.Service
module Spec = Ispn_admission.Spec

let () =
  let engine = Engine.create () in
  (* Duplex mesh: each undirected edge is two directed CSZ-scheduled links. *)
  let edges = [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] in
  let links = edges @ List.map (fun (a, b) -> (b, a)) edges in
  let fabric = Fabric.topology ~engine ~n_switches:4 ~links () in
  let svc = Service.create_on ~fabric () in
  Service.start svc;
  let prng = Ispn_util.Prng.create ~seed:11L in

  let flows = ref [] in
  let establish ~flow ~ingress ~egress spec label rate =
    match Service.request svc ~flow ~ingress ~egress spec ~sink:(fun _ -> ()) with
    | Ok est ->
        let path = Option.get (Fabric.path fabric ~ingress ~egress) in
        Printf.printf "%-28s S%d -> S%d over %d link(s)%s\n" label
          (ingress + 1) (egress + 1) (List.length path)
          (match est.Service.advertised_bound with
          | Some b -> Printf.sprintf ", bound %.0f ms" (1000. *. b)
          | None -> "");
        let source =
          Ispn_traffic.Onoff.create ~engine ~prng:(Ispn_util.Prng.split prng)
            ~flow ~avg_rate_pps:rate ~emit:est.Service.emit ()
        in
        source.Ispn_traffic.Source.start ();
        flows := (label, flow) :: !flows
    | Error reason -> Printf.printf "%-28s REFUSED: %s\n" label reason
  in

  (* The conference: three guaranteed legs at 128 kbit/s each. *)
  List.iteri
    (fun i (a, b) ->
      establish ~flow:i ~ingress:a ~egress:b
        (Spec.Guaranteed { clock_rate_bps = 256_000. })
        (Printf.sprintf "video leg %d (guaranteed)" (i + 1))
        128.)
    [ (0, 3); (3, 0); (1, 2) ];

  (* Predicted-service data between the remaining site pairs. *)
  List.iteri
    (fun i (a, b) ->
      establish ~flow:(10 + i) ~ingress:a ~egress:b
        (Spec.Predicted
           {
             bucket = Spec.bucket ~rate_pps:100. ~depth_packets:20. ();
             target_delay = 0.13;
             target_loss = 0.01;
           })
        (Printf.sprintf "telemetry %d (predicted)" (i + 1))
        100.)
    [ (0, 3); (2, 1); (3, 2) ];

  (* Datagram backup traffic: no promises, takes what is left. *)
  establish ~flow:20 ~ingress:0 ~egress:3 Spec.Datagram "backup (datagram)" 300.;

  Engine.run engine ~until:120.;

  Printf.printf "\nPer-link load after 120 s:\n";
  (* Link [i] is entry [i] of [links]; label it by its endpoints. *)
  List.iteri
    (fun i (a, b) ->
      let l = Fabric.link fabric i in
      if Link.sent l > 0 then
        Printf.printf "  %-10s %5.1f%% utilized, %6d packets, reserved %3.0f%%\n"
          (Printf.sprintf "S-%d->S-%d" (a + 1) (b + 1))
          (100. *. Link.utilization l ~elapsed:120.)
          (Link.sent l)
          (100.
          *. Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fabric ~link:i)
          /. 1e6))
    links;
  Printf.printf
    "\n%d flows admitted, %d refused.  Same scheduler, same admission rule,\n\
     arbitrary topology: the architecture is the mechanism, not the chain.\n"
    (Service.admitted svc) (Service.rejected svc)
