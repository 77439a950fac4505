(* Guaranteed service: the paper's intolerant client (Section 2.3 imagines a
   surgeon assisting remotely over a video link — no service interruption is
   acceptable, so the client takes the traditional worst-case contract).

   The surgery video reserves a clock rate equal to its token-bucket rate
   and gets the Parekh-Gallager worst-case bound.  The same link also
   carries deliberately hostile traffic: a greedy source blasting far above
   its share into the datagram class.  The guaranteed flow's measured
   worst-case delay stays under its precomputed bound no matter what the
   hostile source does — that is what "guaranteed" means.

   Run with: dune exec examples/remote_surgery.exe *)

open Ispn_sim
module Service = Csz.Service
module Spec = Ispn_admission.Spec

let () =
  let engine = Engine.create () in
  let svc = Service.create ~engine ~n_switches:3 () in
  Service.start svc;

  (* 300 kbit/s of video, bursty within a (300 pkt/s, 20 packet) bucket;
     the client asks for a clock rate equal to its bucket rate. *)
  let video_bucket = Spec.bucket ~rate_pps:300. ~depth_packets:20. () in
  let delays = Ispn_util.Fvec.create () in
  let video =
    match
      Service.request svc ~flow:1 ~ingress:0 ~egress:2
        ~own_bucket:video_bucket
        (Spec.Guaranteed { clock_rate_bps = 300_000. })
        ~sink:(fun pkt ->
          Ispn_util.Fvec.push delays (Packet.qdelay_total pkt);
          Packet.free pkt)
    with
    | Ok est -> est
    | Error e -> failwith ("video rejected: " ^ e)
  in
  let bound =
    match video.Service.advertised_bound with
    | Some b -> b
    | None -> assert false
  in
  Printf.printf
    "Surgery video admitted; Parekh-Gallager queueing bound: %.1f ms\n"
    (1000. *. bound);

  (* Conforming emission: a greedy-but-honest source that keeps its own
     token bucket exactly empty — the paper's worst case for the bound. *)
  let video_source =
    Ispn_traffic.Greedy.create ~engine ~flow:1 ~rate_pps:300.
      ~burst_packets:20 ~emit:video.Service.emit ()
  in

  (* The attacker: a datagram source flooding at well over the leftover
     capacity.  No reservation, no conformance, no mercy. *)
  let flood =
    match
      Service.request svc ~flow:66 ~ingress:0 ~egress:2 Spec.Datagram
        ~sink:(fun _ -> ())
    with
    | Ok est -> est
    | Error _ -> assert false
  in
  let flood_source =
    Ispn_traffic.Greedy.create ~engine ~flow:66 ~rate_pps:900.
      ~burst_packets:100 ~emit:flood.Service.emit ()
  in

  video_source.Ispn_traffic.Source.start ();
  flood_source.Ispn_traffic.Source.start ();
  Engine.run engine ~until:120.;

  let worst = Ispn_util.Fvec.max ~init:0. delays in
  Printf.printf
    "Video packets delivered: %d; worst observed queueing delay: %.1f ms\n"
    (Ispn_util.Fvec.length delays) (1000. *. worst);
  Printf.printf "Flood packets offered alongside: %d\n"
    (flood_source.Ispn_traffic.Source.generated ());
  if worst <= bound then
    Printf.printf
      "\nThe worst case stayed under the precomputed bound (%.1f <= %.1f \
       ms)\neven though the datagram flood ran unconstrained: WFQ isolation \
       at work.\n"
      (1000. *. worst) (1000. *. bound)
  else
    Printf.printf "\nBOUND VIOLATED — this would be a bug.\n"
