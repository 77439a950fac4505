module Spec = Ispn_admission.Spec
module Bounds = Ispn_admission.Bounds
module Meter = Ispn_admission.Meter
module Controller = Ispn_admission.Controller
module Units = Ispn_util.Units

(* --- Spec --- *)

let test_bucket_constructor () =
  let b = Spec.bucket ~rate_pps:85. ~depth_packets:50. () in
  Alcotest.(check (float 1e-6)) "rate" 85_000. b.Spec.rate_bps;
  Alcotest.(check (float 1e-6)) "depth" 50_000. b.Spec.depth_bits

let test_is_realtime () =
  Alcotest.(check bool) "guaranteed" true
    (Spec.is_realtime (Spec.Guaranteed { clock_rate_bps = 1. }));
  Alcotest.(check bool) "datagram" false (Spec.is_realtime Spec.Datagram)

(* --- Bounds: the paper's Table 3 values --- *)

let to_units s = Units.packet_times ~link_rate_bps:1e6 ~packet_bits:1000 s

let test_pg_bound_matches_table3 () =
  (* Guaranteed-Peak (r = 170 pkt/s, effective depth 1 packet):
     4 hops -> 23.53, 2 hops -> 11.76 packet times. *)
  let peak = { Spec.rate_bps = 170_000.; depth_bits = 1000. } in
  let b4 = Bounds.pg_bound ~bucket:peak ~clock_rate_bps:170_000. ~hops:4 () in
  let b2 = Bounds.pg_bound ~bucket:peak ~clock_rate_bps:170_000. ~hops:2 () in
  Alcotest.(check (float 0.01)) "Peak/4" 23.53 (to_units b4);
  Alcotest.(check (float 0.01)) "Peak/2" 11.76 (to_units b2);
  (* Guaranteed-Average (r = 85 pkt/s, depth 50 packets):
     3 hops -> 611.76, 1 hop -> 588.24. *)
  let avg = Spec.bucket ~rate_pps:85. ~depth_packets:50. () in
  let b3 = Bounds.pg_bound ~bucket:avg ~clock_rate_bps:85_000. ~hops:3 () in
  let b1 = Bounds.pg_bound ~bucket:avg ~clock_rate_bps:85_000. ~hops:1 () in
  Alcotest.(check (float 0.01)) "Average/3" 611.76 (to_units b3);
  Alcotest.(check (float 0.01)) "Average/1" 588.24 (to_units b1)

let test_pg_bound_validations () =
  let b = Spec.bucket ~rate_pps:85. ~depth_packets:50. () in
  Alcotest.check_raises "hops < 1"
    (Invalid_argument "Bounds.pg_bound: hops must be >= 1") (fun () ->
      ignore (Bounds.pg_bound ~bucket:b ~clock_rate_bps:85_000. ~hops:0 ()));
  Alcotest.check_raises "clock below bucket rate"
    (Invalid_argument "Bounds.pg_bound: clock rate below bucket rate")
    (fun () -> ignore (Bounds.pg_bound ~bucket:b ~clock_rate_bps:1000. ~hops:1 ()))

let test_pg_bound_packetized () =
  let b = Spec.bucket ~rate_pps:200. ~depth_packets:10. () in
  let fluid = Bounds.pg_bound ~bucket:b ~clock_rate_bps:200_000. ~hops:2 () in
  let packetized =
    Bounds.pg_bound_packetized ~bucket:b ~clock_rate_bps:200_000. ~hops:2
      ~link_rate_bps:1e6 ~max_competitors:3 ()
  in
  (* 2 hops x 3 competitors x 1 ms of slack. *)
  Alcotest.(check (float 1e-9)) "slack" 0.006 (packetized -. fluid);
  Alcotest.check_raises "negative competitors"
    (Invalid_argument "Bounds.pg_bound_packetized: negative competitors")
    (fun () ->
      ignore
        (Bounds.pg_bound_packetized ~bucket:b ~clock_rate_bps:200_000. ~hops:1
           ~link_rate_bps:1e6 ~max_competitors:(-1) ()))

let test_predicted_bound_sums_targets () =
  Alcotest.(check (float 1e-9)) "3 hops class 1" 0.192
    (Bounds.predicted_bound ~cls:1 ~hops:3)

(* --- Meter --- *)

let test_meter_windowed_max () =
  let m = Meter.create ~epochs:3 () in
  Meter.note_util m 0.5;
  Meter.note_util m 0.7;
  Alcotest.(check (float 1e-9)) "max within epoch" 0.7 (Meter.util_hat m);
  Meter.rotate m;
  Meter.note_util m 0.2;
  Alcotest.(check (float 1e-9)) "max across epochs" 0.7 (Meter.util_hat m);
  Meter.rotate m;
  Meter.rotate m;
  (* The 0.7 epoch has fallen out of the 3-epoch window. *)
  Alcotest.(check (float 1e-9)) "old peak expires" 0.2 (Meter.util_hat m)

let test_meter_class_delays () =
  let m = Meter.create ~epochs:2 () in
  Meter.note_delay m ~cls:0 0.004;
  Meter.note_delay m ~cls:1 0.050;
  Meter.note_delay m ~cls:0 0.002;
  Alcotest.(check (float 1e-9)) "class 0 max" 0.004 (Meter.delay_hat m ~cls:0);
  Alcotest.(check (float 1e-9)) "class 1 max" 0.050 (Meter.delay_hat m ~cls:1);
  Alcotest.check_raises "bad class"
    (Invalid_argument "Meter.delay_hat: class out of range") (fun () ->
      ignore (Meter.delay_hat m ~cls:5))

(* Each class is held to its own target in [Spec.class_targets]; a delay
   exactly at the target meets it, and rotation keeps the counts. *)
let test_meter_counts_over_target () =
  let m = Meter.create ~epochs:2 () in
  Meter.note_delay m ~cls:0 0.008;
  Meter.note_delay m ~cls:0 0.009;
  Meter.note_delay m ~cls:1 0.009;
  Meter.rotate m;
  Meter.rotate m;
  Meter.note_delay m ~cls:1 0.065;
  Alcotest.(check int) "noted" 4 (Meter.noted m);
  Alcotest.(check int) "over target" 2 (Meter.over_target m);
  Alcotest.check_raises "datagram is not a class"
    (Invalid_argument "Meter.note_delay: class out of range") (fun () ->
      Meter.note_delay m ~cls:2 1.);
  Alcotest.(check int) "nothing noted" 4 (Meter.noted m)

(* The meter against the folds it replaced ([Array.fold_left Stdlib.max]
   over a window of per-epoch maxima kept with [Stdlib.max]): every
   estimate must be bit-identical, NaN and signed zeros included. *)
let prop_meter_matches_stdlib_max =
  let sample =
    QCheck.Gen.(
      frequency
        [
          (8, float_range 0. 1.);
          (1, oneofl [ Float.nan; -0.; 0.; infinity; -1. ]);
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun u -> `Util u) sample);
          (4, map2 (fun c d -> `Delay (c, d)) (int_bound 1) sample);
          (1, return `Rotate);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"meter estimates = Stdlib.max folds"
    (QCheck.make QCheck.Gen.(list_size (int_range 0 60) op))
    (fun ops ->
      let epochs = 3 in
      let m = Meter.create ~epochs () in
      let util = Array.make epochs 0. in
      let delay = Array.init epochs (fun _ -> Array.make 2 0.) in
      let cursor = ref 0 in
      List.iter
        (function
          | `Util u ->
              Meter.note_util m u;
              util.(!cursor) <- Stdlib.max util.(!cursor) u
          | `Delay (c, d) ->
              Meter.note_delay m ~cls:c d;
              delay.(!cursor).(c) <- Stdlib.max delay.(!cursor).(c) d
          | `Rotate ->
              Meter.rotate m;
              cursor := (!cursor + 1) mod epochs;
              util.(!cursor) <- 0.;
              Array.fill delay.(!cursor) 0 2 0.)
        ops;
      let same a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let hats = Array.make 3 0. in
      Meter.estimates_into m hats;
      same (Meter.util_hat m) (Array.fold_left Stdlib.max 0. util)
      && same hats.(0) (Array.fold_left Stdlib.max 0. util)
      && List.for_all
           (fun c ->
             let model =
               Array.fold_left (fun acc row -> Stdlib.max acc row.(c)) 0. delay
             in
             same (Meter.delay_hat m ~cls:c) model && same hats.(c + 1) model)
           [ 0; 1 ])

(* --- Controller --- *)

let mk_ctrl () = Controller.create ()

let test_datagram_always_admitted () =
  let c = mk_ctrl () in
  match Controller.request c ~flow:1 ~hops:1 Spec.Datagram with
  | Controller.Admitted { cls = None } -> ()
  | _ -> Alcotest.fail "datagram must be admitted"

let test_guaranteed_quota () =
  let c = mk_ctrl () in
  let ask flow r =
    Controller.request c ~flow ~hops:1 (Spec.Guaranteed { clock_rate_bps = r })
  in
  (match ask 1 500_000. with
  | Controller.Admitted _ -> ()
  | Controller.Rejected r -> Alcotest.failf "first 500k rejected: %s" r);
  (* 500k reserved; another 500k would exceed the 90% quota. *)
  (match ask 2 500_000. with
  | Controller.Rejected _ -> ()
  | Controller.Admitted _ -> Alcotest.fail "quota not enforced");
  Alcotest.(check (float 1e-6)) "reserved" 500_000.
    (Controller.guaranteed_reserved_bps c);
  Alcotest.(check int) "one admitted" 1 (Controller.live c);
  Alcotest.(check bool) "refused flow not booked" false
    (Controller.mem c ~flow:2)

let test_release_restores_capacity () =
  let c = mk_ctrl () in
  let ask flow =
    Controller.request c ~flow ~hops:1
      (Spec.Guaranteed { clock_rate_bps = 500_000. })
  in
  ignore (ask 1);
  Controller.release c ~flow:1;
  (* Declared-rate accounting of the released flow must also be gone after
     the measurement window passes. *)
  for _ = 1 to 10 do
    Controller.epoch c
  done;
  match ask 2 with
  | Controller.Admitted _ -> ()
  | Controller.Rejected r -> Alcotest.failf "capacity not restored: %s" r

(* A flow over a 2-link path asks each link's controller with [~hops:2];
   every link must give the same answer. *)
let request_path ctrls ~flow req =
  match
    List.map (fun c -> Controller.request c ~flow ~hops:2 req) ctrls
  with
  | d :: rest ->
      if not (List.for_all (fun d' -> d' = d) rest) then
        Alcotest.failf "flow %d: the links disagree" flow;
      d
  | [] -> assert false

let test_predicted_class_selection () =
  let ctrls = [ mk_ctrl (); mk_ctrl () ] in
  let bucket = Spec.bucket ~rate_pps:85. ~depth_packets:10. () in
  (* Loose end-to-end target over 2 hops: lowest class (1) suffices. *)
  (match
     request_path ctrls ~flow:1
       (Spec.Predicted { bucket; target_delay = 0.2; target_loss = 0.01 })
   with
  | Controller.Admitted { cls = Some 1 } -> ()
  | Controller.Admitted { cls } ->
      Alcotest.failf "expected class 1, got %s"
        (match cls with Some c -> string_of_int c | None -> "none")
  | Controller.Rejected r -> Alcotest.failf "rejected: %s" r);
  (* Tight target: needs class 0 (2 hops * 8 ms fits under 17 ms; 2 * 64 ms
     does not).  The burst must also be small enough to drain inside the
     8 ms class target, hence the shallow bucket. *)
  let small = Spec.bucket ~rate_pps:85. ~depth_packets:2. () in
  (match
     request_path ctrls ~flow:2
       (Spec.Predicted
          { bucket = small; target_delay = 0.017; target_loss = 0.01 })
   with
  | Controller.Admitted { cls = Some 0 } -> ()
  | _ -> Alcotest.fail "expected class 0");
  (* Unattainable target: rejected. *)
  match
    request_path ctrls ~flow:3
      (Spec.Predicted { bucket; target_delay = 0.001; target_loss = 0.01 })
  with
  | Controller.Rejected _ -> ()
  | Controller.Admitted _ -> Alcotest.fail "impossible target admitted"

let test_predicted_burst_rejected_when_class_loaded () =
  let c = mk_ctrl () in
  (* Report a measured class-1 delay of 60 ms against a 64 ms target: only
     4 ms of slack.  A flow with a large bucket must be refused. *)
  let m = Controller.meter c in
  Meter.note_delay m ~cls:1 0.060;
  Meter.note_util m 0.5;
  let big = Spec.bucket ~rate_pps:50. ~depth_packets:50. () in
  (match
     Controller.request c ~flow:1 ~hops:1
       (Spec.Predicted { bucket = big; target_delay = 0.064; target_loss = 0.01 })
   with
  | Controller.Rejected _ -> ()
  | Controller.Admitted _ -> Alcotest.fail "burst risk ignored");
  (* A small-bucket flow still fits. *)
  let small = Spec.bucket ~rate_pps:10. ~depth_packets:1. () in
  match
    Controller.request c ~flow:2 ~hops:1
      (Spec.Predicted { bucket = small; target_delay = 0.064; target_loss = 0.01 })
  with
  | Controller.Admitted _ -> ()
  | Controller.Rejected r -> Alcotest.failf "small flow rejected: %s" r

let test_measured_utilization_gates_admission () =
  let c = mk_ctrl () in
  let m = Controller.meter c in
  Meter.note_util m 0.88;
  (* 0.88 measured + 0.05 requested > 0.9: refuse. *)
  match
    Controller.request c ~flow:1 ~hops:1
      (Spec.Guaranteed { clock_rate_bps = 50_000. })
  with
  | Controller.Rejected _ -> ()
  | Controller.Admitted _ -> Alcotest.fail "measured load ignored"

let test_duplicate_flow_rejected () =
  let c = mk_ctrl () in
  ignore
    (Controller.request c ~flow:1 ~hops:1
       (Spec.Guaranteed { clock_rate_bps = 1000. }));
  (try
     ignore
       (Controller.request c ~flow:1 ~hops:1
          (Spec.Guaranteed { clock_rate_bps = 1000. }));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "no hops"
    (Invalid_argument "Controller: hops must be at least 1") (fun () ->
      ignore (Controller.request c ~flow:2 ~hops:0 Spec.Datagram))

(* [decide] answers as [request] would and books nothing. *)
let test_decide_books_nothing () =
  let c = mk_ctrl () in
  let req = Spec.Guaranteed { clock_rate_bps = 500_000. } in
  for _ = 1 to 3 do
    match Controller.decide c ~hops:1 req with
    | Controller.Admitted { cls = None } -> ()
    | _ -> Alcotest.fail "expected a classless grant"
  done;
  Alcotest.(check int) "nothing booked" 0 (Controller.live c);
  Alcotest.(check (float 0.)) "nothing reserved" 0.
    (Controller.guaranteed_reserved_bps c);
  ignore (Controller.request c ~flow:1 ~hops:1 req);
  match Controller.decide c ~hops:1 req with
  | Controller.Rejected _ -> ()
  | Controller.Admitted _ -> Alcotest.fail "decide ignored the booking"

(* The admission log line is formatted only inside the [Logs] closure;
   its text must read as before. *)
let test_admit_log_text () =
  let src = Ispn_util.Log.admission in
  let old_level = Logs.Src.level src and old_reporter = Logs.reporter () in
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Logs.set_reporter
    (Logs.format_reporter ~pp_header:(fun _ _ -> ()) ~app:ppf ~dst:ppf ());
  Logs.Src.set_level src (Some Logs.Info);
  Fun.protect
    ~finally:(fun () ->
      Logs.Src.set_level src old_level;
      Logs.set_reporter old_reporter)
    (fun () ->
      let c = mk_ctrl () in
      ignore
        (Controller.request c ~flow:1 ~hops:1
           (Spec.Guaranteed { clock_rate_bps = 123_456.7 }));
      ignore
        (Controller.request c ~flow:2 ~hops:1
           (Spec.Predicted
              {
                bucket = Spec.bucket ~rate_pps:10. ~depth_packets:1. ();
                target_delay = 0.064;
                target_loss = 0.01;
              }));
      Format.pp_print_flush ppf ();
      Alcotest.(check string)
        "log lines"
        "flow 1 admitted (guaranteed 123457 bps)\n\
         flow 2 admitted (predicted class 1)\n"
        (Buffer.contents buf))

(* Property: admitting and releasing flows leaves no trace.  After [n]
   random-rate guaranteed and predicted requests over one or both of two
   links' controllers (some refused, some graduated by epochs) are all
   released, every decision on a grid of requests equals that of fresh
   controllers whose meters saw the same samples — the running sums of
   declared and reserved rates must come back to exactly 0, not to a
   rounding residue. *)
let prop_release_leaves_no_trace =
  let gen_req =
    QCheck.Gen.(
      map3
        (fun guaranteed rate path ->
          let path = [| [ 0 ]; [ 1 ]; [ 0; 1 ] |].(path) in
          let req =
            if guaranteed then Spec.Guaranteed { clock_rate_bps = rate }
            else
              Spec.Predicted
                {
                  bucket = { Spec.rate_bps = rate; depth_bits = rate /. 50. };
                  target_delay = 0.2;
                  target_loss = 0.01;
                }
          in
          (req, path))
        bool (float_range 1. 200_000.) (int_range 0 2))
  in
  QCheck.Test.make ~count:300 ~name:"release leaves no trace"
    QCheck.(
      make
        Gen.(pair (list_size (int_range 1 40) gen_req) (int_range 0 3)))
    (fun (reqs, epochs) ->
      let used = [| mk_ctrl (); mk_ctrl () |]
      and fresh = [| mk_ctrl (); mk_ctrl () |] in
      Array.iter
        (fun cs ->
          Array.iteri
            (fun link c ->
              let m = Controller.meter c in
              Meter.note_util m (0.2 +. (0.1 *. float_of_int link));
              Meter.note_delay m ~cls:0 0.002;
              Meter.note_delay m ~cls:1 0.020)
            cs)
        [| used; fresh |];
      let request cs ~flow req path =
        let hops = List.length path in
        List.map (fun link -> Controller.request cs.(link) ~flow ~hops req) path
      in
      let release cs ~flow path =
        List.iter (fun link -> Controller.release cs.(link) ~flow) path
      in
      List.iteri
        (fun i (req, path) ->
          ignore (request used ~flow:i req path);
          if i = List.length reqs / 2 then
            for _ = 1 to epochs do
              Array.iter Controller.epoch used;
              Array.iter Controller.epoch fresh
            done)
        reqs;
      List.iteri (fun i (_, path) -> release used ~flow:i path) reqs;
      let probe cs ~flow req path =
        let d = request cs ~flow req path in
        release cs ~flow path;
        d
      in
      let agree = ref true in
      List.iter
        (fun path ->
          for k = 1 to 40 do
            let rate = float_of_int k *. 25_000. in
            List.iter
              (fun req ->
                let flow = 1_000 + k in
                if probe used ~flow req path <> probe fresh ~flow req path then
                  agree := false)
              [
                Spec.Guaranteed { clock_rate_bps = rate };
                Spec.Predicted
                  {
                    bucket = { Spec.rate_bps = rate; depth_bits = 4_000. };
                    target_delay = 0.2;
                    target_loss = 0.01;
                  };
              ]
          done)
        [ [ 0 ]; [ 1 ]; [ 0; 1 ] ];
      !agree
      && Array.for_all
           (fun c ->
             Controller.guaranteed_reserved_bps c = 0. && Controller.live c = 0)
           used)

let suite =
  [
    Alcotest.test_case "bucket constructor" `Quick test_bucket_constructor;
    Alcotest.test_case "is_realtime" `Quick test_is_realtime;
    Alcotest.test_case "P-G bounds match Table 3" `Quick
      test_pg_bound_matches_table3;
    Alcotest.test_case "P-G bound validations" `Quick test_pg_bound_validations;
    Alcotest.test_case "P-G packetized slack" `Quick test_pg_bound_packetized;
    Alcotest.test_case "predicted bound sums targets" `Quick
      test_predicted_bound_sums_targets;
    Alcotest.test_case "meter windowed max" `Quick test_meter_windowed_max;
    Alcotest.test_case "meter class delays" `Quick test_meter_class_delays;
    Alcotest.test_case "meter counts over-target delays" `Quick
      test_meter_counts_over_target;
    Alcotest.test_case "datagram always admitted" `Quick
      test_datagram_always_admitted;
    Alcotest.test_case "guaranteed quota" `Quick test_guaranteed_quota;
    Alcotest.test_case "release restores capacity" `Quick
      test_release_restores_capacity;
    Alcotest.test_case "predicted class selection" `Quick
      test_predicted_class_selection;
    Alcotest.test_case "burst rejected when class loaded" `Quick
      test_predicted_burst_rejected_when_class_loaded;
    Alcotest.test_case "measured utilization gates admission" `Quick
      test_measured_utilization_gates_admission;
    Alcotest.test_case "duplicate flow rejected" `Quick
      test_duplicate_flow_rejected;
    Alcotest.test_case "decide books nothing" `Quick test_decide_books_nothing;
    Alcotest.test_case "admit log text" `Quick test_admit_log_text;
    QCheck_alcotest.to_alcotest prop_release_leaves_no_trace;
    QCheck_alcotest.to_alcotest prop_meter_matches_stdlib_max;
  ]
