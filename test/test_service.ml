open Ispn_sim
module Service = Csz.Service
module Spec = Ispn_admission.Spec

let make () =
  let engine = Engine.create () in
  let svc = Service.create ~engine ~n_switches:3 () in
  (engine, svc)

let test_guaranteed_establishment () =
  let _, svc = make () in
  let got = ref 0 in
  match
    Service.request svc ~flow:1 ~ingress:0 ~egress:2
      ~own_bucket:(Spec.bucket ~rate_pps:85. ~depth_packets:50. ())
      (Spec.Guaranteed { clock_rate_bps = 85_000. })
      ~sink:(fun _ -> incr got)
  with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok est ->
      Alcotest.(check (option int)) "no class" None est.Service.cls;
      (match est.Service.advertised_bound with
      | Some b ->
          (* (50 pkts + 1 pkt store-and-forward) / 85 pkt/s = 0.6 s. *)
          Alcotest.(check (float 1e-3)) "P-G bound" 0.6 b
      | None -> Alcotest.fail "expected a bound");
      (* The scheduler at both links knows the flow. *)
      Alcotest.(check (float 1e-6)) "link 0 reserved" 85_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Service.sched svc ~link:0));
      Alcotest.(check (float 1e-6)) "link 1 reserved" 85_000.
        (Csz.Csz_sched.guaranteed_reserved_bps (Service.sched svc ~link:1))

let test_predicted_establishment_and_policing () =
  let engine, svc = make () in
  let got = ref 0 in
  match
    Service.request svc ~flow:2 ~ingress:0 ~egress:1
      (Spec.Predicted
         {
           bucket = Spec.bucket ~rate_pps:100. ~depth_packets:2. ();
           target_delay = 0.1;
           target_loss = 0.01;
         })
      ~sink:(fun _ -> incr got)
  with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok est ->
      Alcotest.(check bool) "assigned a class" true (est.Service.cls <> None);
      (match est.Service.advertised_bound with
      | Some b -> Alcotest.(check bool) "bound positive" true (b > 0.)
      | None -> Alcotest.fail "expected a bound");
      (* Blast 10 packets instantly: depth 2 conform, the rest are policed
         away at the edge. *)
      for i = 0 to 9 do
        est.Service.emit (Packet.make ~flow:2 ~seq:i ~created:0. ())
      done;
      Engine.run engine ~until:1.;
      Alcotest.(check int) "edge policing enforced" 2 !got

let test_datagram_passes_unpoliced () =
  let engine, svc = make () in
  let got = ref 0 in
  (match
     Service.request svc ~flow:3 ~ingress:0 ~egress:2 Spec.Datagram
       ~sink:(fun _ -> incr got)
   with
  | Error e -> Alcotest.failf "rejected: %s" e
  | Ok est ->
      for i = 0 to 9 do
        est.Service.emit (Packet.make ~flow:3 ~seq:i ~created:0. ())
      done);
  Engine.run engine ~until:1.;
  Alcotest.(check int) "all through" 10 !got

let test_rejection_surfaces () =
  let _, svc = make () in
  ignore
    (Service.request svc ~flow:1 ~ingress:0 ~egress:2
       (Spec.Guaranteed { clock_rate_bps = 850_000. })
       ~sink:(fun _ -> ()));
  match
    Service.request svc ~flow:2 ~ingress:0 ~egress:2
      (Spec.Guaranteed { clock_rate_bps = 200_000. })
      ~sink:(fun _ -> ())
  with
  | Error _ ->
      Alcotest.(check int) "rejected count" 1 (Service.rejected svc)
  | Ok _ -> Alcotest.fail "over-quota request admitted"

let test_teardown_releases () =
  let _, svc = make () in
  (match
     Service.request svc ~flow:1 ~ingress:0 ~egress:2
       (Spec.Guaranteed { clock_rate_bps = 500_000. })
       ~sink:(fun _ -> ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected: %s" e);
  Service.teardown svc ~flow:1;
  Alcotest.(check (float 1e-6)) "sched released" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Service.sched svc ~link:0));
  Alcotest.(check int) "controller released" 0 (Service.admitted svc)

(* Link 1 is loaded so that a guaranteed request over 0 -> 2 passes at
   link 0 and is refused at link 1: no link may keep a booking. *)
let test_refusal_downstream_books_nothing () =
  let _, svc = make () in
  let guaranteed ~flow ~ingress r =
    Service.request svc ~flow ~ingress ~egress:2
      (Spec.Guaranteed { clock_rate_bps = r })
      ~sink:(fun _ -> ())
  in
  (match guaranteed ~flow:1 ~ingress:1 800_000. with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "loading link 1 rejected: %s" e);
  (match guaranteed ~flow:2 ~ingress:0 150_000. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-quota request admitted at link 1");
  let ctrl link = Service.controller svc ~link in
  let module C = Ispn_admission.Controller in
  Alcotest.(check int) "link 0 books nothing" 0 (C.live (ctrl 0));
  Alcotest.(check (float 0.)) "link 0 reserves nothing" 0.
    (C.guaranteed_reserved_bps (ctrl 0));
  Alcotest.(check (float 0.)) "link 0 scheduler reserves nothing" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Service.sched svc ~link:0));
  Alcotest.(check int) "link 1 keeps flow 1 alone" 1 (C.live (ctrl 1));
  Alcotest.(check int) "one refusal" 1 (Service.rejected svc);
  Alcotest.(check int) "one admitted" 1 (Service.admitted svc);
  (match guaranteed ~flow:3 ~ingress:0 50_000. with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fitting request rejected: %s" e);
  Alcotest.(check int) "link 0 books flow 3" 1 (C.live (ctrl 0));
  Alcotest.(check (float 1e-6)) "link 1 reserves both" 850_000.
    (C.guaranteed_reserved_bps (ctrl 1));
  Alcotest.(check int) "two admitted" 2 (Service.admitted svc);
  Service.teardown svc ~flow:3;
  Alcotest.(check int) "link 0 released" 0 (C.live (ctrl 0));
  Alcotest.(check (float 1e-6)) "link 1 back to flow 1" 800_000.
    (C.guaranteed_reserved_bps (ctrl 1))

let test_epoch_pump_runs () =
  let engine, svc = make () in
  Service.start svc;
  (* Nothing should blow up over many epochs with idle links. *)
  Engine.run engine ~until:20.;
  Alcotest.(check bool) "pump alive" true (Engine.pending engine > 0)

let suite =
  [
    Alcotest.test_case "guaranteed establishment" `Quick
      test_guaranteed_establishment;
    Alcotest.test_case "predicted establishment and policing" `Quick
      test_predicted_establishment_and_policing;
    Alcotest.test_case "datagram passes unpoliced" `Quick
      test_datagram_passes_unpoliced;
    Alcotest.test_case "rejection surfaces" `Quick test_rejection_surfaces;
    Alcotest.test_case "teardown releases" `Quick test_teardown_releases;
    Alcotest.test_case "refusal downstream books nothing" `Quick
      test_refusal_downstream_books_nothing;
    Alcotest.test_case "epoch pump runs" `Quick test_epoch_pump_runs;
  ]
