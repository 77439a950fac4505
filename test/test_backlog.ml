open Ispn_sim

let test_samples_queue_depth () =
  let engine = Engine.create () in
  let pool = Qdisc.pool ~capacity:100 in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  let link = Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"l" () in
  Link.set_receiver link (fun _ -> ());
  let watcher = Backlog.watch ~engine ~link ~interval:0.0005 () in
  (* A 10-packet burst drains one packet per ms: depth decays 9, 8, ... *)
  for i = 0 to 9 do
    Link.send link (Packet.make ~flow:0 ~seq:i ~created:0. ())
  done;
  Engine.run engine ~until:0.02;
  Alcotest.(check bool) "sampled" true (Backlog.count watcher > 10);
  Alcotest.(check (float 0.5)) "peak depth seen" 9. (Backlog.max watcher);
  Alcotest.(check bool) "decays to empty" true
    (Ispn_util.Fvec.get (Backlog.samples watcher)
       (Backlog.count watcher - 1)
    = 0.)

let test_empty_link_samples_zero () =
  let engine = Engine.create () in
  let pool = Qdisc.pool ~capacity:10 in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  let link = Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"l" () in
  Link.set_receiver link (fun _ -> ());
  let watcher = Backlog.watch ~engine ~link ~interval:0.01 () in
  Engine.run engine ~until:0.1;
  Alcotest.(check (float 0.)) "all zero" 0. (Backlog.max watcher);
  Alcotest.(check (float 0.)) "mean zero" 0. (Backlog.mean watcher)

let test_histogram_buckets () =
  let engine = Engine.create () in
  let pool = Qdisc.pool ~capacity:100 in
  let qdisc = Ispn_sched.Fifo.create ~pool () in
  let link = Link.create ~engine ~rate_bps:1e6 ~qdisc ~name:"l" () in
  Link.set_receiver link (fun _ -> ());
  let watcher = Backlog.watch ~engine ~link ~interval:0.001 () in
  for i = 0 to 4 do
    Link.send link (Packet.make ~flow:0 ~seq:i ~created:0. ())
  done;
  Engine.run engine ~until:0.02;
  let h = Backlog.histogram watcher in
  Alcotest.(check int) "histogram covers all samples"
    (Backlog.count watcher)
    (Ispn_util.Loghist.count h);
  Alcotest.(check int) "the maximum is not overflow" 0
    (Ispn_util.Loghist.overflow h)

let suite =
  [
    Alcotest.test_case "samples queue depth" `Quick test_samples_queue_depth;
    Alcotest.test_case "empty link samples zero" `Quick
      test_empty_link_samples_zero;
    Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
  ]
