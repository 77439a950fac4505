(* Fault plans and the injector: link outages, wire corruption, crash
   reporting — and the Link failure model they drive. *)
open Ispn_sim
module Plan = Ispn_faults.Plan
module Inject = Ispn_faults.Inject

let mk_packet ?(flow = 0) ?(seq = 0) ?(created = 0.) () =
  Packet.make ~flow ~seq ~created ()

let make_link engine ?(capacity = 10) () =
  let pool = Qdisc.pool ~capacity in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"faulty" ()

(* --- Link failure model --- *)

let test_down_loses_in_flight_repair_restarts () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let arrivals = ref [] in
  Link.set_receiver link (fun p ->
      arrivals := ((Packet.seq p), Engine.now engine) :: !arrivals);
  for seq = 0 to 2 do
    Link.send link (mk_packet ~seq ())
  done;
  (* Packet 1 is on the wire at 1.5 ms: the outage loses exactly it. *)
  ignore
    (Engine.schedule engine ~at:0.0015 (fun () -> Link.set_up link false));
  ignore (Engine.schedule engine ~at:0.01 (fun () -> Link.set_up link true));
  Engine.run engine ~until:0.1;
  Alcotest.(check bool) "up again" true (Link.is_up link);
  Alcotest.(check int) "in-flight frame lost" 1 (Link.drops_down link);
  Alcotest.(check int) "dropped counted" 1 (Link.dropped link);
  (match List.rev !arrivals with
  | [ (0, t0); (2, t2) ] ->
      Alcotest.(check (float 1e-9)) "pre-outage delivery" 0.001 t0;
      (* Repair restarts the transmitter from the backlog immediately. *)
      Alcotest.(check (float 1e-9)) "post-repair delivery" 0.011 t2
  | _ -> Alcotest.fail "expected packets 0 and 2 only");
  Alcotest.(check int) "sent counts deliveries only" 2 (Link.sent link)

let test_down_queues_and_overflows () =
  let engine = Engine.create () in
  let link = make_link engine ~capacity:10 () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.set_up link false;
  (* 15 sends against a 10-packet buffer: 10 queue behind the dead
     transmitter, 5 overflow. *)
  for seq = 0 to 14 do
    Link.send link (mk_packet ~seq ())
  done;
  Engine.run engine ~until:0.005;
  Alcotest.(check int) "nothing delivered while down" 0 !got;
  Alcotest.(check int) "overflow drops while down" 5 (Link.dropped link);
  Link.set_up link true;
  Engine.run engine ~until:0.1;
  Alcotest.(check int) "backlog drains after repair" 10 !got

let test_redundant_transitions_are_noops () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  Link.set_up link true;
  (* Already up: must not double-start the transmitter. *)
  Link.send link (mk_packet ());
  Link.set_up link true;
  Engine.run engine ~until:0.01;
  Alcotest.(check int) "delivered once" 1 !got;
  Link.set_up link false;
  Link.set_up link false;
  Alcotest.(check bool) "down" false (Link.is_up link)

(* --- Injector: link events from a plan --- *)

let test_inject_link_down_event () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let stats =
    Inject.apply ~engine ~links:[| link |]
      [ Plan.Link_down { link = 0; at = 0.0015; duration = 0.004 } ]
  in
  for seq = 0 to 4 do
    Link.send link (mk_packet ~seq ())
  done;
  Engine.run engine ~until:0.1;
  Alcotest.(check int) "downs" 1 stats.Inject.downs;
  Alcotest.(check int) "repairs" 1 stats.Inject.repairs;
  Alcotest.(check int) "in-flight frame lost" 1 (Link.dropped link);
  Alcotest.(check int) "rest delivered" 4 !got

let test_inject_rejects_unknown_link () =
  let engine = Engine.create () in
  let link = make_link engine () in
  Alcotest.check_raises "out-of-range link"
    (Invalid_argument "Inject.apply: link 3 out of range")
    (fun () ->
      ignore
        (Inject.apply ~engine ~links:[| link |]
           [ Plan.Link_down { link = 3; at = 0.; duration = 1. } ]))

let test_agent_crash_reported () =
  let engine = Engine.create () in
  let link = make_link engine () in
  let crashed = ref [] in
  let stats =
    Inject.apply ~engine ~links:[| link |]
      ~on_agent_crash:(fun ~switch ->
        crashed := (switch, Engine.now engine) :: !crashed)
      [ Plan.Agent_crash { switch = 2; at = 0.5 } ]
  in
  Engine.run engine ~until:1.;
  Alcotest.(check int) "crashes counted" 1 stats.Inject.crashes;
  match !crashed with
  | [ (2, t) ] -> Alcotest.(check (float 1e-9)) "at plan time" 0.5 t
  | _ -> Alcotest.fail "expected one crash at switch 2"

(* --- Injector: wire corruption --- *)

let test_corruption_stats_account_for_every_packet () =
  let engine = Engine.create () in
  let link = make_link engine ~capacity:300 () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let n = 200 in
  let stats =
    Inject.apply ~engine ~links:[| link |]
      [ Plan.Corrupt { link = 0; from_ = 0.; until = 10.; per_packet = 1.0 } ]
  in
  for seq = 0 to n - 1 do
    Link.send link (mk_packet ~flow:3 ~seq ())
  done;
  Engine.run engine ~until:10.;
  Alcotest.(check int) "every packet hit" n stats.Inject.corrupted;
  (* One flipped header bit either malforms the header, mangles an
     identifying field, or only perturbs the offset: the three outcomes
     partition the corrupted packets. *)
  Alcotest.(check int) "drops = malformed + mangled"
    (stats.Inject.malformed + stats.Inject.mangled)
    (Link.dropped link);
  Alcotest.(check int) "delivered the rest" (n - Link.dropped link) !got;
  Alcotest.(check bool) "some malformed" true (stats.Inject.malformed > 0);
  Alcotest.(check bool) "some mangled" true (stats.Inject.mangled > 0);
  Alcotest.(check bool) "some survive with a bent offset" true (!got > 0)

let test_corruption_window_closes () =
  let engine = Engine.create () in
  let link = make_link engine ~capacity:300 () in
  let got = ref 0 in
  Link.set_receiver link (fun _ -> incr got);
  let stats =
    Inject.apply ~engine ~links:[| link |]
      [
        Plan.Corrupt { link = 0; from_ = 1.; until = 2.; per_packet = 1.0 };
      ]
  in
  (* All traffic before the window opens: nothing may be touched. *)
  for seq = 0 to 49 do
    Link.send link (mk_packet ~seq ())
  done;
  Engine.run engine ~until:0.5;
  Alcotest.(check int) "untouched outside window" 0 stats.Inject.corrupted;
  Alcotest.(check int) "all delivered" 50 !got

(* --- Interleaving fuzz: the soft-state lifecycle under random schedules ---

   Random interleavings of session setup, departure, reliable teardown,
   off-schedule refresh and agent crashes on a 4-switch chain, with the
   refresh/timeout machinery live throughout.  Whatever the schedule, once
   the dust settles the control plane must be exactly clean: no
   double-reserve survives (admissions = releases at every agent), no
   residue (no live book entries, no soft-state stamps, zero reserved
   bandwidth), and every flow id supports an idempotent re-setup. *)

module Fabric = Csz.Fabric
module Signaling = Csz.Signaling
module Spec = Ispn_admission.Spec
module Controller = Ispn_admission.Controller

type slot_state = Free | Pending | Active | Draining of float

let prop_lifecycle_interleavings =
  let ri = 0.05 in
  let lifetime = 3. *. ri in
  (* Drained slots stay quarantined until any soft-state residue of the
     previous incarnation has provably expired (DESIGN.md, session
     lifecycle): a fresh setup under the same flow id before that could
     meet its predecessor's reservation at a downstream agent. *)
  let quarantine = lifetime +. (2.1 *. ri) in
  QCheck.Test.make ~count:40 ~name:"soft-state lifecycle interleavings"
    QCheck.(list_of_size Gen.(int_range 10 60) (int_bound 1000))
    (fun ops ->
      let engine = Engine.create () in
      let fab = Fabric.chain ~engine ~n_switches:4 () in
      let s =
        Signaling.deploy ~fabric:fab ~setup_timeout:0.01 ~max_retries:3
          ~refresh_interval:ri ()
      in
      let n_slots = 4 in
      let st = Array.make n_slots Free in
      let flow_of slot = 1 + slot in
      let spec_of k =
        match k mod 3 with
        | 0 ->
            Spec.Guaranteed
              {
                clock_rate_bps = 60_000. +. (30_000. *. float_of_int (k mod 5));
              }
        | 1 ->
            Spec.Predicted
              {
                bucket = Spec.bucket ~rate_pps:50. ~depth_packets:4. ();
                target_delay = 0.128;
                target_loss = 0.01;
              }
        | _ -> Spec.Datagram
      in
      let advance dt = Engine.run engine ~until:(Engine.now engine +. dt) in
      let do_setup slot k =
        st.(slot) <- Pending;
        Signaling.setup s ~flow:(flow_of slot) ~ingress:0 ~egress:3 (spec_of k)
          ~sink:Packet.free ~on_result:(fun r ->
            st.(slot) <-
              (match r with
              | Ok _ -> Active
              | Error _ -> Draining (Engine.now engine)))
      in
      List.iter
        (fun op ->
          let slot = op mod n_slots in
          (match (op / n_slots) mod 6 with
          | 0 | 1 -> (
              match st.(slot) with
              | Free -> do_setup slot op
              | Draining t when Engine.now engine -. t > quarantine ->
                  do_setup slot op
              | _ -> ())
          | 2 -> (
              match st.(slot) with
              | Active ->
                  Signaling.depart s ~flow:(flow_of slot);
                  st.(slot) <- Draining (Engine.now engine)
              | _ -> ())
          | 3 -> (
              match st.(slot) with
              | Active ->
                  Signaling.teardown s ~flow:(flow_of slot);
                  st.(slot) <- Draining (Engine.now engine)
              | _ -> ())
          | 4 -> (
              match st.(slot) with
              | Active -> Signaling.refresh_now s ~flow:(flow_of slot)
              | _ -> ())
          | _ -> Signaling.crash_agent s ~switch:(op mod Fabric.n_links fab));
          advance (0.002 *. float_of_int (1 + (op mod 10))))
        ops;
      (* Let retry budgets, crash re-assertions and refresh epochs settle,
         then depart everything still up and wait out the lifetime. *)
      advance 1.;
      for slot = 0 to n_slots - 1 do
        match st.(slot) with
        | Active -> Signaling.depart s ~flow:(flow_of slot)
        | _ -> ()
      done;
      advance (quarantine +. 1.);
      let clean = ref true in
      let dirty fmt =
        Printf.ksprintf
          (fun m ->
            clean := false;
            print_endline ("lifecycle fuzz: " ^ m))
          fmt
      in
      if Signaling.established_count s <> 0 then
        dirty "%d sessions survive quiescence" (Signaling.established_count s);
      for link = 0 to Fabric.n_links fab - 1 do
        let c = Signaling.controller s ~link in
        if Controller.live c <> 0 then
          dirty "agent %d books %d live flows" link (Controller.live c);
        if Controller.admissions c <> Controller.releases c then
          dirty "agent %d: %d admissions vs %d releases" link
            (Controller.admissions c) (Controller.releases c);
        if Signaling.soft_state_count s ~link <> 0 then
          dirty "agent %d holds %d stamps" link
            (Signaling.soft_state_count s ~link);
        let g = Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link) in
        if g <> 0. then dirty "link %d still reserves %.0f bps" link g
      done;
      (* Idempotent re-setup: every id must come straight back at full
         service, whatever its history. *)
      let back = ref 0 in
      for slot = 0 to n_slots - 1 do
        Signaling.setup s ~flow:(flow_of slot) ~ingress:0 ~egress:3
          (Spec.Guaranteed { clock_rate_bps = 100_000. })
          ~sink:Packet.free ~on_result:(fun r ->
            if Result.is_ok r then incr back)
      done;
      advance 0.5;
      if !back <> n_slots then dirty "only %d/%d ids re-setup cleanly" !back n_slots;
      !clean)

let suite =
  [
    Alcotest.test_case "down loses in-flight, repair restarts" `Quick
      test_down_loses_in_flight_repair_restarts;
    Alcotest.test_case "down queues and overflows" `Quick
      test_down_queues_and_overflows;
    Alcotest.test_case "redundant transitions are no-ops" `Quick
      test_redundant_transitions_are_noops;
    Alcotest.test_case "inject link-down event" `Quick
      test_inject_link_down_event;
    Alcotest.test_case "inject rejects unknown link" `Quick
      test_inject_rejects_unknown_link;
    Alcotest.test_case "agent crash reported" `Quick test_agent_crash_reported;
    Alcotest.test_case "corruption stats account for every packet" `Quick
      test_corruption_stats_account_for_every_packet;
    Alcotest.test_case "corruption window closes" `Quick
      test_corruption_window_closes;
    QCheck_alcotest.to_alcotest prop_lifecycle_interleavings;
  ]
