open Ispn_sim
module Signaling = Csz.Signaling
module Fabric = Csz.Fabric
module Spec = Ispn_admission.Spec

let make ?(n_switches = 3) () =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches () in
  let sig_net = Signaling.deploy ~fabric:fab () in
  (engine, fab, sig_net)

let guaranteed r = Spec.Guaranteed { clock_rate_bps = r }

let test_setup_takes_network_time () =
  let engine, _, s = make () in
  let result = ref None in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2
    ~own_bucket:(Spec.bucket ~rate_pps:100. ~depth_packets:10. ())
    (guaranteed 100_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> result := Some r);
  (* Nothing resolves synchronously: the setup message is on the wire. *)
  Alcotest.(check bool) "asynchronous" true (!result = None);
  Engine.run engine ~until:1.;
  match !result with
  | Some (Ok est) ->
      (* Two 0.5 ms control transmissions forward + 2 ms of reverse-path
         confirmation. *)
      Alcotest.(check bool)
        (Printf.sprintf "setup took %.4fs" est.Signaling.setup_time)
        true
        (est.Signaling.setup_time >= 0.0025 && est.Signaling.setup_time < 0.006);
      (match est.Signaling.advertised_bound with
      | Some b -> Alcotest.(check (float 1e-6)) "P-G bound" 0.11 b
      | None -> Alcotest.fail "expected bound");
      Alcotest.(check int) "established" 1 (Signaling.established_count s);
      Alcotest.(check int) "two control packets" 2
        (Signaling.control_packets_sent s)
  | Some (Error e) -> Alcotest.failf "refused: %s" e
  | None -> Alcotest.fail "no result"

let test_data_flows_after_establishment () =
  let engine, _, s = make () in
  let got = ref 0 in
  let emit = ref None in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 100_000.)
    ~sink:(fun _ -> incr got)
    ~on_result:(fun r ->
      match r with Ok est -> emit := Some est.Signaling.emit | Error _ -> ());
  Engine.run engine ~until:0.1;
  (Option.get !emit) (Packet.make ~flow:1 ~seq:0 ~created:0.1 ());
  Engine.run engine ~until:0.2;
  Alcotest.(check int) "delivered end to end" 1 !got

let test_midpath_refusal_rolls_back () =
  let engine, fab, s = make () in
  (* Book most of link 1 (the second hop) with a one-hop flow. *)
  let ok = ref false in
  Signaling.setup s ~flow:1 ~ingress:1 ~egress:2 (guaranteed 500_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> ok := Result.is_ok r);
  Engine.run engine ~until:0.1;
  Alcotest.(check bool) "pre-booking succeeded" true !ok;
  (* Now a two-hop flow that fits link 0 but not link 1. *)
  let refused = ref None in
  Signaling.setup s ~flow:2 ~ingress:0 ~egress:2 (guaranteed 500_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r ->
      match r with Error e -> refused := Some e | Ok _ -> ());
  Engine.run engine ~until:0.2;
  (match !refused with
  | Some msg ->
      Alcotest.(check bool) "refused at the second hop" true
        (String.length msg >= 16 && String.sub msg 0 16 = "refused at hop 2")
  | None -> Alcotest.fail "expected refusal");
  (* The first hop's reservation was rolled back... *)
  Alcotest.(check (float 1e-6)) "link 0 clean" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:0));
  Alcotest.(check int) "refusal counted" 1 (Signaling.refused_count s);
  (* ...so an equally big flow can still take link 0. *)
  let ok2 = ref false in
  Signaling.setup s ~flow:3 ~ingress:0 ~egress:1 (guaranteed 500_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> ok2 := Result.is_ok r);
  Engine.run engine ~until:0.3;
  Alcotest.(check bool) "link 0 reusable" true !ok2

let test_concurrent_setups_race () =
  let engine, _, s = make () in
  let results = ref [] in
  List.iter
    (fun flow ->
      Signaling.setup s ~flow ~ingress:0 ~egress:2 (guaranteed 500_000.)
        ~sink:(fun _ -> ())
        ~on_result:(fun r -> results := (flow, Result.is_ok r) :: !results))
    [ 1; 2 ];
  Engine.run engine ~until:0.5;
  let winners = List.filter snd !results in
  Alcotest.(check int) "exactly one winner" 1 (List.length winners);
  Alcotest.(check int) "both resolved" 2 (List.length !results)

let test_predicted_setup_assigns_classes () =
  let engine, _, s = make () in
  let est = ref None in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2
    (Spec.Predicted
       {
         bucket = Spec.bucket ~rate_pps:85. ~depth_packets:3. ();
         target_delay = 0.128;
         target_loss = 0.01;
       })
    ~sink:(fun _ -> ())
    ~on_result:(fun r ->
      match r with Ok e -> est := Some e | Error _ -> ());
  Engine.run engine ~until:0.5;
  match !est with
  | Some e ->
      (* 0.128 over two hops = 64 ms per hop: the loose class. *)
      Alcotest.(check (option int)) "class" (Some 1) e.Signaling.cls;
      Alcotest.(check (option (float 1e-9))) "summed targets"
        (Some 0.128) e.Signaling.advertised_bound
  | None -> Alcotest.fail "not established"

let test_teardown_releases_all_hops () =
  let engine, fab, s = make () in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 300_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun _ -> ());
  Engine.run engine ~until:0.1;
  Signaling.teardown s ~flow:1;
  Alcotest.(check (float 1e-6)) "link 0 released" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:0));
  Alcotest.(check (float 1e-6)) "link 1 released" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Alcotest.(check int) "count" 0 (Signaling.established_count s)

let test_duplicate_setup_rejected () =
  let _, _, s = make () in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 1000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun _ -> ());
  try
    Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 1000.)
      ~sink:(fun _ -> ())
      ~on_result:(fun _ -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> (
    (* The books are indexed by flow id, so a negative id is refused
       before anything is reserved. *)
    try
      Signaling.setup s ~flow:(-1) ~ingress:0 ~egress:2 Spec.Datagram
        ~sink:(fun _ -> ())
        ~on_result:(fun _ -> ());
      Alcotest.fail "expected Invalid_argument for a negative flow"
    with Invalid_argument _ -> ())

let test_no_route () =
  let _, _, s = make () in
  let got = ref None in
  Signaling.setup s ~flow:1 ~ingress:2 ~egress:0 (guaranteed 1000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> got := Some r);
  match !got with
  | Some (Error "no route") -> ()
  | Some _ | None -> Alcotest.fail "expected immediate no-route error"

let test_setup_queues_behind_data () =
  (* With the datagram class saturated, the control packet itself waits:
     establishment latency grows — signaling is genuinely in-band. *)
  let engine, fab, s = make () in
  for link = 0 to 1 do
    Fabric.install_flow fab ~flow:(500 + link) ~ingress:link
      ~egress:(link + 1)
      ~sink:(fun _ -> ());
    let src =
      Ispn_traffic.Greedy.create ~engine ~flow:(500 + link) ~rate_pps:950.
        ~burst_packets:50
        ~emit:(fun p -> Fabric.inject fab ~at_switch:link p)
        ()
    in
    src.Ispn_traffic.Source.start ()
  done;
  Engine.run engine ~until:0.05;
  let est_time = ref None in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 50_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r ->
      match r with
      | Ok e -> est_time := Some e.Signaling.setup_time
      | Error _ -> ());
  Engine.run engine ~until:2.;
  match !est_time with
  | Some time ->
      Alcotest.(check bool)
        (Printf.sprintf "setup slowed by load (%.4fs)" time)
        true (time > 0.006)
  | None -> Alcotest.fail "setup did not complete"

(* --- Robustness: timeouts, retries, crashes, degradation --- *)

let make_robust ?(n_switches = 3) ?(setup_timeout = 0.02) ?(max_retries = 6) ()
    =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches () in
  let s = Signaling.deploy ~fabric:fab ~setup_timeout ~max_retries () in
  (engine, fab, s)

let test_dark_link_retries_until_repair () =
  (* The acceptance scenario: a mid-path link is dark when the setup
     launches; the message times out, is retransmitted with backoff, and
     the attempt in flight when the link is repaired establishes the
     flow. *)
  let engine, fab, s = make_robust () in
  Link.set_up (Fabric.link fab 1) false;
  let result = ref None in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2 (guaranteed 100_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> result := Some r);
  ignore
    (Engine.schedule engine ~at:0.1 (fun () ->
         Link.set_up (Fabric.link fab 1) true));
  Engine.run engine ~until:2.;
  (match !result with
  | Some (Ok _) -> ()
  | Some (Error e) -> Alcotest.failf "refused: %s" e
  | None -> Alcotest.fail "no result");
  Alcotest.(check bool) "retried while dark" true (Signaling.retries s > 0);
  Alcotest.(check int) "established" 1 (Signaling.established_count s);
  Alcotest.(check int) "nothing abandoned" 0 (Signaling.abandoned_count s)

let test_abandoned_setup_leaves_no_residue () =
  let engine, fab, s = make_robust ~setup_timeout:0.01 ~max_retries:2 () in
  Link.set_up (Fabric.link fab 1) false;
  let result = ref None in
  Signaling.setup s ~flow:7 ~ingress:0 ~egress:2 (guaranteed 200_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> result := Some r);
  Engine.run engine ~until:5.;
  (match !result with
  | Some (Error msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "timeout error (%s)" msg)
        true
        (String.length msg >= 15 && String.sub msg 0 15 = "setup timed out")
  | Some (Ok _) -> Alcotest.fail "should not establish over a dead link"
  | None -> Alcotest.fail "no result");
  Alcotest.(check int) "abandoned" 1 (Signaling.abandoned_count s);
  Alcotest.(check int) "counted as a refusal" 1 (Signaling.refused_count s);
  Alcotest.(check int) "used the whole retry budget" 2 (Signaling.retries s);
  (* Links 0 and 1 were reserved before the setup went dark at hop 2; the
     rollback must leave no residue at either. *)
  for link = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "controller %d clean" link)
      false
      (Ispn_admission.Controller.mem (Signaling.controller s ~link) ~flow:7);
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "sched %d clean" link)
      0.
      (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link))
  done

let test_deploy_validates_parameters () =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches:3 () in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Signaling.deploy: class_targets must be non-empty" (fun () ->
      ignore (Signaling.deploy ~fabric:fab ~class_targets:[||] ()));
  expect "Signaling.deploy: class_targets must be positive" (fun () ->
      ignore (Signaling.deploy ~fabric:fab ~class_targets:[| 0.; 0.01 |] ()));
  expect "Signaling.deploy: class_targets must be strictly increasing"
    (fun () ->
      ignore
        (Signaling.deploy ~fabric:fab ~class_targets:[| 0.064; 0.008 |] ()));
  expect "Signaling.deploy: setup_timeout must be positive" (fun () ->
      ignore (Signaling.deploy ~fabric:fab ~setup_timeout:0. ()));
  expect "Signaling.deploy: max_retries must be non-negative" (fun () ->
      ignore (Signaling.deploy ~fabric:fab ~max_retries:(-1) ()));
  (* A zero epoch livelocked the measurement pump at t = 0, a negative one
     failed inside the engine without naming the parameter, and a negative
     reverse delay was accepted only to raise at the first confirmation. *)
  let epoch = "Signaling.deploy: epoch_interval must be positive and finite" in
  List.iter
    (fun epoch_interval ->
      expect epoch (fun () ->
          ignore (Signaling.deploy ~fabric:fab ~epoch_interval ())))
    [ 0.; -1.; infinity ];
  let reverse =
    "Signaling.deploy: reverse_hop_delay must be non-negative and finite"
  in
  List.iter
    (fun reverse_hop_delay ->
      expect reverse (fun () ->
          ignore (Signaling.deploy ~fabric:fab ~reverse_hop_delay ())))
    [ -1.; infinity ]

let test_crash_reestablishes_same_level () =
  let engine, fab, s = make_robust () in
  let ok = ref false in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2
    ~own_bucket:(Spec.bucket ~rate_pps:100. ~depth_packets:10. ())
    (guaranteed 300_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> ok := Result.is_ok r);
  Engine.run engine ~until:0.1;
  Alcotest.(check bool) "established" true !ok;
  Signaling.crash_agent s ~switch:1;
  Alcotest.(check (float 1e-6)) "crash wiped link 1" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Engine.run engine ~until:0.2;
  Alcotest.(check int) "crash counted" 1 (Signaling.crash_count s);
  Alcotest.(check int) "reestablished" 1 (Signaling.reestablished_count s);
  Alcotest.(check int) "no degradation needed" 0 (Signaling.degraded_count s);
  (match Signaling.service_level s ~flow:1 with
  | Some Signaling.Guaranteed -> ()
  | Some l -> Alcotest.failf "degraded to %s" (Signaling.level_name l)
  | None -> Alcotest.fail "flow gone");
  (* The forgotten hop was re-reserved; the surviving hop kept its grant. *)
  Alcotest.(check (float 1e-6)) "link 1 re-reserved" 300_000.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Alcotest.(check (float 1e-6)) "link 0 undisturbed" 300_000.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:0));
  Alcotest.(check bool) "recovery latency recorded" true
    (Signaling.mean_reestablish_latency s > 0.)

let test_crash_degrades_when_capacity_usurped () =
  let engine, fab, s = make_robust () in
  let ok = ref false in
  Signaling.setup s ~flow:1 ~ingress:0 ~egress:2
    ~own_bucket:(Spec.bucket ~rate_pps:100. ~depth_packets:5. ())
    (guaranteed 300_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> ok := Result.is_ok r);
  Engine.run engine ~until:0.1;
  Alcotest.(check bool) "established" true !ok;
  Signaling.crash_agent s ~switch:1;
  (* A newcomer grabs the freed capacity before the victim's re-assertion
     fires: re-admission at the guaranteed rung must now fail. *)
  let usurper_ok = ref false in
  Signaling.setup s ~flow:2 ~ingress:1 ~egress:2 (guaranteed 650_000.)
    ~sink:(fun _ -> ())
    ~on_result:(fun r -> usurper_ok := Result.is_ok r);
  Engine.run engine ~until:0.5;
  Alcotest.(check bool) "usurper admitted" true !usurper_ok;
  (match Signaling.service_level s ~flow:1 with
  | Some Signaling.Predicted -> ()
  | Some l ->
      Alcotest.failf "expected predicted, got %s" (Signaling.level_name l)
  | None -> Alcotest.fail "victim lost entirely");
  Alcotest.(check bool) "degradation counted" true
    (Signaling.degraded_count s >= 1);
  Alcotest.(check int) "reestablished one rung down" 1
    (Signaling.reestablished_count s);
  (* The victim's guaranteed reservation is gone; only the usurper's
     remains on the contested link. *)
  Alcotest.(check (float 1e-6)) "link 1 guaranteed = usurper only" 650_000.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1))

(* --- Soft state: refresh, timeout expiry, lossy teardown --- *)

let make_soft ?(n_switches = 3) ?(refresh_interval = 0.1)
    ?(lifetime_epochs = 3) ?(setup_timeout = 0.02) ?(max_retries = 6) () =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches () in
  let s =
    Signaling.deploy ~fabric:fab ~setup_timeout ~max_retries ~refresh_interval
      ~lifetime_epochs ()
  in
  (engine, fab, s)

let establish ?(flow = 1) ?(ingress = 0) ?(egress = 2) ?(rate = 300_000.)
    engine s =
  let ok = ref false in
  Signaling.setup s ~flow ~ingress ~egress (guaranteed rate)
    ~sink:(fun p -> Packet.free p)
    ~on_result:(fun r -> ok := Result.is_ok r);
  Engine.run engine ~until:(Engine.now engine +. 0.05);
  Alcotest.(check bool) "established" true !ok

let test_refresh_keeps_state_alive () =
  (* An established flow outlives many lifetimes: the periodic refresh
     re-stamps every agent, so the expiry sweep never fires. *)
  let engine, fab, s = make_soft () in
  establish engine s;
  Engine.run engine ~until:2.;
  Alcotest.(check int) "still established" 1 (Signaling.established_count s);
  Alcotest.(check bool) "refreshed many times" true
    (Signaling.refresh_epochs s > 10);
  Alcotest.(check bool) "refresh legs on the wire" true
    (Signaling.refresh_packets_sent s > 10);
  Alcotest.(check int) "nothing expired" 0 (Signaling.expired_count s);
  for link = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "stamped at agent %d" link)
      1
      (Signaling.soft_state_count s ~link)
  done;
  Alcotest.(check (float 1e-6)) "reservation held" 300_000.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1))

let test_lost_teardown_reclaimed_by_expiry () =
  (* The acceptance scenario: the teardown message is lost on the wire, so
     the downstream agent still holds the reservation — until the refresh
     timeout expires it.  No reliable teardown protocol is involved. *)
  let engine, fab, s = make_soft () in
  establish engine s;
  (* Eat everything on link 0's wire while the teardown leg crosses it. *)
  Link.set_wire_filter (Fabric.link fab 0) (fun p ->
      Packet.free p;
      None);
  Signaling.depart s ~flow:1;
  Engine.run engine ~until:(Engine.now engine +. 0.02);
  Link.set_wire_filter (Fabric.link fab 0) (fun p -> Some p);
  (* The ingress hop released locally; hop 1 is stranded. *)
  Alcotest.(check bool) "hop 0 released" false
    (Ispn_admission.Controller.mem (Signaling.controller s ~link:0) ~flow:1);
  Alcotest.(check bool) "hop 1 stranded" true
    (Ispn_admission.Controller.mem (Signaling.controller s ~link:1) ~flow:1);
  Alcotest.(check int) "session gone" 0 (Signaling.established_count s);
  (* No refresh pump runs for a departed flow, so the stamp goes stale and
     the sweep reclaims the reservation within one lifetime + one sweep. *)
  Engine.run engine ~until:(Engine.now engine +. 0.5);
  Alcotest.(check bool) "hop 1 reclaimed" false
    (Ispn_admission.Controller.mem (Signaling.controller s ~link:1) ~flow:1);
  Alcotest.(check bool) "expiry counted" true (Signaling.expired_count s >= 1);
  Alcotest.(check (float 1e-6)) "capacity freed" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Alcotest.(check int) "no stamps left" 0 (Signaling.soft_state_count s ~link:1);
  (* The reclaimed capacity is genuinely reusable. *)
  let ok = ref false in
  Signaling.setup s ~flow:2 ~ingress:1 ~egress:2 (guaranteed 700_000.)
    ~sink:(fun p -> Packet.free p)
    ~on_result:(fun r -> ok := Result.is_ok r);
  Engine.run engine ~until:(Engine.now engine +. 0.1);
  Alcotest.(check bool) "capacity reusable" true !ok

let test_refresh_reasserts_after_silent_wipe () =
  (* A remote agent loses its book with no crash notification (partition,
     expiry on its side).  Nothing tells the ingress — the next refresh
     pass discovers the missing hop and re-asserts it.  Pure soft-state
     self-healing, driven by timers alone. *)
  let engine, _, s = make_soft () in
  establish engine s;
  Ispn_admission.Controller.reset (Signaling.controller s ~link:1);
  Alcotest.(check bool) "hop 1 forgotten" false
    (Ispn_admission.Controller.mem (Signaling.controller s ~link:1) ~flow:1);
  Engine.run engine ~until:(Engine.now engine +. 0.3);
  Alcotest.(check bool) "hop 1 re-asserted" true
    (Ispn_admission.Controller.mem (Signaling.controller s ~link:1) ~flow:1);
  Alcotest.(check bool) "re-assert pass completed" true
    (Signaling.reestablished_count s >= 1);
  (match Signaling.service_level s ~flow:1 with
  | Some Signaling.Guaranteed -> ()
  | Some l -> Alcotest.failf "degraded to %s" (Signaling.level_name l)
  | None -> Alcotest.fail "flow gone")

let test_depart_clean_counts () =
  (* With a healthy wire, depart is just a slower teardown: every hop
     releases on the message's arrival, nothing is left to expire. *)
  let engine, fab, s = make_soft () in
  establish engine s;
  Signaling.depart s ~flow:1;
  Engine.run engine ~until:(Engine.now engine +. 0.05);
  Alcotest.(check int) "gone" 0 (Signaling.established_count s);
  Alcotest.(check int) "teardown counted" 1 (Signaling.teardown_count s);
  Alcotest.(check bool) "teardown leg on the wire" true
    (Signaling.teardown_packets_sent s >= 1);
  for link = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "hop %d released" link)
      false
      (Ispn_admission.Controller.mem (Signaling.controller s ~link) ~flow:1);
    Alcotest.(check int)
      (Printf.sprintf "no stamp at %d" link)
      0
      (Signaling.soft_state_count s ~link)
  done;
  Alcotest.(check (float 1e-6)) "capacity freed" 0.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Engine.run engine ~until:(Engine.now engine +. 1.);
  Alcotest.(check int) "nothing ever expires" 0 (Signaling.expired_count s)

let test_abandoned_setup_during_refresh_epochs () =
  (* Satellite regression: flow A refreshes steadily while flow B's setup
     goes dark mid-path and is abandoned after max_retries.  The rollback
     must be complete, the dark link's queued setup copies must be ignored
     as stale when the link heals (typed tokens: they can never be taken
     for refreshes), and A must be entirely undisturbed. *)
  let engine, fab, s =
    make_soft ~setup_timeout:0.01 ~max_retries:2 ()
  in
  establish engine s;
  (* A has refreshed at least once with its state intact. *)
  Engine.run engine ~until:(Engine.now engine +. 0.25);
  Alcotest.(check bool) "A refreshing" true (Signaling.refresh_epochs s >= 2);
  Link.set_up (Fabric.link fab 1) false;
  let result = ref None in
  Signaling.setup s ~flow:7 ~ingress:0 ~egress:2 (guaranteed 200_000.)
    ~sink:(fun p -> Packet.free p)
    ~on_result:(fun r -> result := Some r);
  Engine.run engine ~until:(Engine.now engine +. 1.);
  (match !result with
  | Some (Error _) -> ()
  | Some (Ok _) -> Alcotest.fail "B established over a dead link"
  | None -> Alcotest.fail "B never resolved");
  Alcotest.(check int) "B abandoned" 1 (Signaling.abandoned_count s);
  (* Heal the link: B's queued setup copies arrive at the egress agent with
     invalidated tokens and must do nothing. *)
  Link.set_up (Fabric.link fab 1) true;
  Engine.run engine ~until:(Engine.now engine +. 1.);
  for link = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "no B residue at hop %d" link)
      false
      (Ispn_admission.Controller.mem (Signaling.controller s ~link) ~flow:7)
  done;
  Alcotest.(check int) "only A is established" 1
    (Signaling.established_count s);
  Alcotest.(check int) "no stale establishment" 1
    (Signaling.total_established s);
  Alcotest.(check int) "A alone is stamped at hop 1" 1
    (Signaling.soft_state_count s ~link:1);
  (match Signaling.service_level s ~flow:1 with
  | Some Signaling.Guaranteed -> ()
  | _ -> Alcotest.fail "A disturbed");
  Alcotest.(check (float 1e-6)) "A's reservation alone on link 1" 300_000.
    (Csz.Csz_sched.guaranteed_reserved_bps (Fabric.sched fab ~link:1));
  Alcotest.(check int) "A never expired" 0 (Signaling.expired_count s)

let test_deploy_validates_soft_state_parameters () =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches:3 () in
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Signaling.deploy: refresh_interval must be positive" (fun () ->
      ignore (Signaling.deploy ~fabric:fab ~refresh_interval:0. ()));
  expect "Signaling.deploy: lifetime_epochs must be at least 1" (fun () ->
      ignore
        (Signaling.deploy ~fabric:fab ~refresh_interval:1. ~lifetime_epochs:0
           ()))

(* --- Property: the control plane's books balance --- *)

(* A random session script on a 5-switch chain: setups of every service
   class (always a fresh flow id, as churn's quarantined id pool
   guarantees), departures and off-schedule refreshes of established
   flows, agent crashes, and windows in which a link corrupts half of what
   it carries.  The script runs once with soft state and once without. *)
type script_op =
  | S_setup of int * int * int  (* class (0 G, 1 P, 2 D), ingress, hops *)
  | S_depart of int  (* index into the established flows *)
  | S_refresh of int
  | S_crash of int  (* switch *)

let gen_script =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun k i h -> S_setup (k, i, h))
            (int_bound 2) (int_bound 3) (int_bound 3) );
        (3, map (fun i -> S_depart i) (int_bound 15));
        (2, map (fun i -> S_refresh i) (int_bound 15));
        (1, map (fun sw -> S_crash sw) (int_bound 3));
      ]
  in
  let window =
    map3
      (fun link from_ len -> (link, from_, len))
      (int_bound 3) (float_range 0. 1.5) (float_range 0.05 0.5)
  in
  pair
    (list_size (int_range 1 40) (pair (float_range 0. 1.5) op))
    (list_size (int_range 0 2) window)

let print_script (ops, windows) =
  let op = function
    | S_setup (k, i, h) -> Printf.sprintf "setup(%d,%d,%d)" k i h
    | S_depart i -> Printf.sprintf "depart(%d)" i
    | S_refresh i -> Printf.sprintf "refresh(%d)" i
    | S_crash sw -> Printf.sprintf "crash(%d)" sw
  in
  String.concat "; "
    (List.map (fun (t, o) -> Printf.sprintf "%.3f %s" t (op o)) ops
    @ List.map
        (fun (l, f, d) -> Printf.sprintf "corrupt link %d %.3f+%.3f" l f d)
        windows)

(* Runs [script]; [Error] names the first broken invariant.  Throughout,
   every agent keeps [admissions = releases + live] and the session
   counters keep [established = total - teardowns].  At the end every
   flow departs; once the teardown legs have landed and one lifetime plus
   one refresh interval has passed, every book and every stamp must be
   empty.  Without soft state a teardown leg lost to corruption leaks by
   design, so a script with corruption windows reclaims the strays the
   documented way — crashing every agent — before the final check. *)
let run_script ~soft (ops, windows) =
  let engine = Engine.create () in
  let fab = Fabric.chain ~engine ~n_switches:5 () in
  let refresh_interval = 0.1 and lifetime_epochs = 3 in
  let s =
    if soft then
      Signaling.deploy ~fabric:fab ~setup_timeout:0.02 ~max_retries:3
        ~refresh_interval ~lifetime_epochs ()
    else Signaling.deploy ~fabric:fab ~setup_timeout:0.02 ~max_retries:3 ()
  in
  let n_links = Fabric.n_links fab in
  let plan =
    List.map
      (fun (link, from_, len) ->
        Ispn_faults.Plan.Corrupt
          { link; from_; until = from_ +. len; per_packet = 0.5 })
      windows
  in
  ignore
    (Ispn_faults.Inject.apply ~engine
       ~links:(Array.init n_links (Fabric.link fab))
       ~corrupt_seed:11L plan);
  let failure = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        if !failure = None then
          failure :=
            Some (Printf.sprintf "t=%.4f: %s" (Engine.now engine) msg))
      fmt
  in
  let check_books () =
    let est = Signaling.established_count s in
    let total = Signaling.total_established s in
    let down = Signaling.teardown_count s in
    if est <> total - down then
      fail "established %d <> total %d - teardowns %d" est total down;
    for link = 0 to n_links - 1 do
      let c = Signaling.controller s ~link in
      let a = Ispn_admission.Controller.admissions c in
      let r = Ispn_admission.Controller.releases c in
      let l = Ispn_admission.Controller.live c in
      if a <> r + l then
        fail "agent %d: admissions %d <> releases %d + live %d" link a r l
    done
  in
  let established = ref [] in
  let draining = ref false in
  let next_flow = ref 0 in
  let nth_established i =
    match !established with
    | [] -> None
    | l -> Some (List.nth l (i mod List.length l))
  in
  let run_op = function
    | S_setup (k, ingress, h) ->
        let flow = !next_flow in
        incr next_flow;
        let egress = ingress + 1 + (h mod (n_links - ingress)) in
        let spec =
          match k with
          | 0 -> guaranteed (40_000. +. (20_000. *. float_of_int (flow mod 7)))
          | 1 ->
              Spec.Predicted
                {
                  bucket = Spec.bucket ~rate_pps:50. ~depth_packets:5. ();
                  target_delay = 0.256;
                  target_loss = 0.01;
                }
          | _ -> Spec.Datagram
        in
        Signaling.setup s ~flow ~ingress ~egress spec ~sink:Packet.free
          ~on_result:(function
            | Ok _ ->
                if !draining then Signaling.depart s ~flow
                else established := !established @ [ flow ]
            | Error _ -> ())
    | S_depart i -> (
        match nth_established i with
        | None -> ()
        | Some flow ->
            established := List.filter (( <> ) flow) !established;
            Signaling.depart s ~flow)
    | S_refresh i -> (
        match nth_established i with
        | None -> ()
        | Some flow -> Signaling.refresh_now s ~flow)
    | S_crash switch -> Signaling.crash_agent s ~switch
  in
  List.iter
    (fun (at, op) ->
      ignore
        (Engine.schedule engine ~at (fun () ->
             run_op op;
             check_books ())))
    ops;
  let rec poll () =
    check_books ();
    if Engine.now engine < 3. then
      ignore (Engine.schedule_after engine ~delay:0.01 poll)
  in
  poll ();
  (* Drain: every established flow departs; setups still in flight
     depart as soon as they confirm (the retry budget resolves every setup
     within 0.02 * (1 + 2 + 4 + 8) s plus the reverse trip). *)
  ignore
    (Engine.schedule engine ~at:1.6 (fun () ->
         draining := true;
         List.iter (fun flow -> Signaling.depart s ~flow) !established;
         established := []));
  let lifetime = refresh_interval *. float_of_int lifetime_epochs in
  let settled = 1.6 +. 0.35 +. lifetime +. refresh_interval +. 0.05 in
  Engine.run engine ~until:settled;
  if (not soft) && windows <> [] then
    for switch = 0 to n_links - 1 do
      Signaling.crash_agent s ~switch
    done;
  check_books ();
  if Signaling.established_count s <> 0 then
    fail "%d flows still established" (Signaling.established_count s);
  for link = 0 to n_links - 1 do
    let c = Signaling.controller s ~link in
    let l = Ispn_admission.Controller.live c in
    if l <> 0 then fail "agent %d: %d live records" link l;
    let a = Ispn_admission.Controller.admissions c in
    let r = Ispn_admission.Controller.releases c in
    if a <> r then fail "agent %d: admissions %d <> releases %d" link a r;
    let st = Signaling.soft_state_count s ~link in
    if st <> 0 then fail "agent %d: %d stamps left" link st
  done;
  match !failure with None -> Ok () | Some msg -> Error msg

let prop_books_balance =
  QCheck.Test.make ~count:150 ~name:"signaling books balance"
    (QCheck.make ~print:print_script gen_script)
    (fun script ->
      List.iter
        (fun soft ->
          match run_script ~soft script with
          | Ok () -> ()
          | Error msg ->
              QCheck.Test.fail_reportf "%s soft state: %s"
                (if soft then "with" else "without")
                msg)
        [ true; false ];
      true)

let suite =
  [
    Alcotest.test_case "setup takes network time" `Quick
      test_setup_takes_network_time;
    Alcotest.test_case "data flows after establishment" `Quick
      test_data_flows_after_establishment;
    Alcotest.test_case "mid-path refusal rolls back" `Quick
      test_midpath_refusal_rolls_back;
    Alcotest.test_case "concurrent setups race" `Quick
      test_concurrent_setups_race;
    Alcotest.test_case "predicted setup assigns classes" `Quick
      test_predicted_setup_assigns_classes;
    Alcotest.test_case "teardown releases all hops" `Quick
      test_teardown_releases_all_hops;
    Alcotest.test_case "duplicate setup rejected" `Quick
      test_duplicate_setup_rejected;
    Alcotest.test_case "no route" `Quick test_no_route;
    Alcotest.test_case "setup queues behind data" `Quick
      test_setup_queues_behind_data;
    Alcotest.test_case "dark link: retries until repair" `Quick
      test_dark_link_retries_until_repair;
    Alcotest.test_case "abandoned setup leaves no residue" `Quick
      test_abandoned_setup_leaves_no_residue;
    Alcotest.test_case "deploy validates parameters" `Quick
      test_deploy_validates_parameters;
    Alcotest.test_case "crash re-establishes same level" `Quick
      test_crash_reestablishes_same_level;
    Alcotest.test_case "crash degrades when capacity usurped" `Quick
      test_crash_degrades_when_capacity_usurped;
    Alcotest.test_case "refresh keeps state alive" `Quick
      test_refresh_keeps_state_alive;
    Alcotest.test_case "lost teardown reclaimed by expiry" `Quick
      test_lost_teardown_reclaimed_by_expiry;
    Alcotest.test_case "refresh re-asserts after silent wipe" `Quick
      test_refresh_reasserts_after_silent_wipe;
    Alcotest.test_case "depart: clean teardown counts" `Quick
      test_depart_clean_counts;
    Alcotest.test_case "abandoned setup during refresh epochs" `Quick
      test_abandoned_setup_during_refresh_epochs;
    Alcotest.test_case "deploy validates soft-state parameters" `Quick
      test_deploy_validates_soft_state_parameters;
    QCheck_alcotest.to_alcotest prop_books_balance;
  ]
