(* The Ispn_check.Audit conformance auditor: a clean run reports zero
   violations, and deliberately broken schedulers / traces trip exactly the
   invariant they break (and no other). *)
open Ispn_sim
module Audit = Ispn_check.Audit

let inv name (s : Audit.summary) =
  match
    List.find_opt (fun i -> i.Audit.inv_name = name) s.Audit.invariants
  with
  | Some i -> i
  | None -> Alcotest.failf "no invariant named %s" name

let violations name s = (inv name s).Audit.inv_violations

(* --- the real thing: a paper workload must be violation-free --- *)

let test_clean_run_no_violations () =
  let a = Audit.create () in
  let _ =
    Csz.Experiment.run_single_link ~sched:Csz.Experiment.Wfq ~duration:2.
      ~audit:a ()
  in
  let s = Audit.finalize a in
  Alcotest.(check int) "violations" 0 s.Audit.violations;
  Alcotest.(check bool) "saw events" true (s.Audit.events > 0);
  Alcotest.(check bool) "ran checks" true (s.Audit.checks > 0);
  (* The single-link run exercises the whole catalogue except delay-bound
     (Table 3 only): policed arrivals, pools, delays, idle transitions. *)
  Alcotest.(check bool) "bucket checked" true
    ((inv "token-bucket" s).Audit.inv_checks > 0);
  Alcotest.(check bool) "pool checked" true
    ((inv "pool" s).Audit.inv_checks > 0);
  Alcotest.(check bool) "idle checked" true
    ((inv "work-conservation" s).Audit.inv_checks > 0)

(* --- broken schedulers, driven through a real link --- *)

(* Claims the work-conserving name "FIFO" but refuses to dequeue. *)
let lazy_fifo () =
  let q = Queue.create () in
  Qdisc.make
    ~enqueue:(fun ~now p ->
      Packet.set_enqueued_at p (now);
      Queue.push p q;
      true)
    ~dequeue:(fun ~now:_ -> None)
    ~length:(fun () -> Queue.length q)
    ~name:"FIFO" ()

let test_work_conservation_violation () =
  let engine = Engine.create () in
  let link =
    Link.create ~engine ~rate_bps:1e6 ~qdisc:(lazy_fifo ()) ~name:"lazy" ()
  in
  Link.set_receiver link (fun _ -> ());
  let a = Audit.create () in
  Audit.attach_link a link;
  ignore
    (Engine.schedule engine ~at:0.001 (fun () ->
         Link.send link (Helpers.pkt ())));
  Engine.run engine ~until:0.010;
  let s = Audit.finalize a in
  Alcotest.(check bool) "idle-with-backlog flagged" true
    (violations "work-conservation" s >= 1);
  (* The packet is still queued, so conservation itself holds. *)
  Alcotest.(check int) "conservation clean" 0 (violations "conservation" s)

let test_non_work_conserving_exempt () =
  (* The same refusal under a frame-based scheduler's name is by design. *)
  let engine = Engine.create () in
  let q = lazy_fifo () in
  let q = Qdisc.make ~enqueue:q.Qdisc.enqueue ~dequeue:q.Qdisc.dequeue
      ~length:q.Qdisc.length ~name:"Stop-and-Go" () in
  let link = Link.create ~engine ~rate_bps:1e6 ~qdisc:q ~name:"sg" () in
  Link.set_receiver link (fun _ -> ());
  let a = Audit.create () in
  Audit.attach_link a link;
  ignore
    (Engine.schedule engine ~at:0.001 (fun () ->
         Link.send link (Helpers.pkt ())));
  Engine.run engine ~until:0.010;
  let s = Audit.finalize a in
  Alcotest.(check int) "exempt" 0 (violations "work-conservation" s);
  Alcotest.(check bool) "classifier" false
    (Audit.work_conserving_name "Stop-and-Go");
  Alcotest.(check bool) "classifier default" true
    (Audit.work_conserving_name "WFQ")

let test_conservation_violation () =
  (* Accepts packets and silently discards them. *)
  let black_hole =
    Qdisc.make
      ~enqueue:(fun ~now:_ _ -> true)
      ~dequeue:(fun ~now:_ -> None)
      ~length:(fun () -> 0)
      ~name:"FIFO" ()
  in
  let engine = Engine.create () in
  let link =
    Link.create ~engine ~rate_bps:1e6 ~qdisc:black_hole ~name:"hole" ()
  in
  Link.set_receiver link (fun _ -> ());
  ignore
    (Engine.schedule engine ~at:0.001 (fun () ->
         Link.send link (Helpers.pkt ())));
  let a = Audit.create () in
  Audit.attach_link a link;
  Engine.run engine ~until:0.010;
  let s = Audit.finalize a in
  Alcotest.(check bool) "lost packet flagged" true
    (violations "conservation" s >= 1)

let test_pool_leak_violation () =
  (* Takes a buffer per packet but never releases: after the packet leaves,
     the pool still holds a buffer the qdisc no longer reports. *)
  let pool = Qdisc.pool ~capacity:4 in
  let q = Queue.create () in
  let leaky =
    Qdisc.make
      ~enqueue:(fun ~now p ->
        if Qdisc.pool_take pool then begin
          Packet.set_enqueued_at p (now);
          Queue.push p q;
          true
        end
        else false)
      ~dequeue:(fun ~now:_ ->
        if Queue.is_empty q then None else Some (Queue.pop q))
      ~length:(fun () -> Queue.length q)
      ~name:"FIFO" ()
  in
  let engine = Engine.create () in
  (* A high link id also exercises the auditor's slot growth. *)
  let link =
    Link.create ~engine ~rate_bps:1e6 ~id:20 ~qdisc:leaky ~name:"leaky" ()
  in
  Link.set_receiver link (fun _ -> ());
  let a = Audit.create () in
  Audit.register_pool a ~link:20 pool;
  Audit.attach_link a link;
  ignore
    (Engine.schedule engine ~at:0.001 (fun () ->
         Link.send link (Helpers.pkt ())));
  Engine.run engine ~until:0.100;
  let s = Audit.finalize a in
  Alcotest.(check bool) "leak flagged" true (violations "pool" s >= 1);
  Alcotest.(check int) "conservation clean" 0 (violations "conservation" s)

(* --- invariants driven through the raw tap --- *)

let test_negative_delay_flagged () =
  let a = Audit.create () in
  let tap = Audit.tap a in
  tap.Tap.on_dequeue ~link:0 ~now:1.0 ~wait:(-0.001) (Helpers.pkt ());
  let p = Helpers.pkt ~seq:1 () in
  Packet.set_qdelay_total p (-0.5);
  tap.Tap.on_deliver ~link:0 ~now:2.0 p;
  let s = Audit.finalize a in
  Alcotest.(check int) "both flagged" 2 (violations "delay" s)

let test_token_bucket_conformance () =
  let a = Audit.create () in
  Audit.register_policed_flow a ~flow:3 ~link:0 ~rate_bps:1000.
    ~depth_bits:1000.;
  let tap = Audit.tap a in
  (* Paced exactly at the refill rate: conforming. *)
  tap.Tap.on_enqueue ~link:0 ~now:0.5 (Helpers.pkt ~flow:3 ());
  tap.Tap.on_enqueue ~link:0 ~now:1.5 (Helpers.pkt ~flow:3 ~seq:1 ());
  (* Unpoliced flows and other links are not checked at all. *)
  tap.Tap.on_enqueue ~link:0 ~now:1.5 (Helpers.pkt ~flow:4 ());
  tap.Tap.on_enqueue ~link:1 ~now:1.5 (Helpers.pkt ~flow:3 ~seq:2 ());
  let s = Audit.finalize a in
  Alcotest.(check int) "conforming" 0 (violations "token-bucket" s);
  Alcotest.(check int) "only policed arrivals checked" 2
    (inv "token-bucket" s).Audit.inv_checks

let test_token_bucket_violation () =
  let a = Audit.create () in
  Audit.register_policed_flow a ~flow:0 ~link:0 ~rate_bps:1000.
    ~depth_bits:2000.;
  let tap = Audit.tap a in
  tap.Tap.on_enqueue ~link:0 ~now:0. (Helpers.pkt ());
  (* A buffer drop still passed the policer, so it debits the model too. *)
  tap.Tap.on_drop ~link:0 ~now:0. ~cause:Ispn_obs.Recorder.Buffer
    (Helpers.pkt ~seq:1 ());
  (* Bucket now empty: a third back-to-back packet breaks the envelope. *)
  tap.Tap.on_enqueue ~link:0 ~now:0. (Helpers.pkt ~seq:2 ());
  let s = Audit.finalize a in
  Alcotest.(check int) "burst beyond depth flagged" 1
    (violations "token-bucket" s)

let test_pg_bound () =
  let a = Audit.create () in
  Audit.register_delay_bound a ~kind:Audit.Pg ~flow:7 ~link:2 ~bound_s:0.010;
  let tap = Audit.tap a in
  let ok = Helpers.pkt ~flow:7 () in
  Packet.set_qdelay_total ok (0.005);
  tap.Tap.on_deliver ~link:2 ~now:1. ok;
  let bad = Helpers.pkt ~flow:7 ~seq:1 () in
  Packet.set_qdelay_total bad (0.020);
  tap.Tap.on_deliver ~link:2 ~now:2. bad;
  (* Delivery at a non-egress hop carries partial delay: not checked. *)
  let upstream = Helpers.pkt ~flow:7 ~seq:2 () in
  Packet.set_qdelay_total upstream (0.020);
  tap.Tap.on_deliver ~link:1 ~now:3. upstream;
  let s = Audit.finalize a in
  Alcotest.(check int) "egress deliveries checked" 2
    (inv "delay-bound" s).Audit.inv_checks;
  Alcotest.(check int) "bound breach flagged" 1 (violations "delay-bound" s);
  Alcotest.(check (list string)) "sample names the PG bound"
    [
      "delay-bound: flow 7 seq 1 at t=2.000000: queueing delay 0.020000s \
       exceeds the PG bound 0.010000s";
    ]
    s.Audit.samples

let test_registration_growth () =
  (* Flow ids far beyond the initial arrays must grow the slots, not crash
     or silently skip the check. *)
  let a = Audit.create () in
  Audit.register_policed_flow a ~flow:500 ~link:0 ~rate_bps:1e6
    ~depth_bits:1e6;
  Audit.register_delay_bound a ~kind:Audit.Pg ~flow:901 ~link:3 ~bound_s:1.;
  let tap = Audit.tap a in
  tap.Tap.on_enqueue ~link:0 ~now:0.1 (Helpers.pkt ~flow:500 ());
  tap.Tap.on_deliver ~link:3 ~now:0.2 (Helpers.pkt ~flow:901 ());
  let s = Audit.finalize a in
  Alcotest.(check int) "no violations" 0 s.Audit.violations;
  Alcotest.(check int) "bucket checked" 1
    (inv "token-bucket" s).Audit.inv_checks;
  Alcotest.(check int) "bound checked" 1 (inv "delay-bound" s).Audit.inv_checks

(* Packet arenas are domain-local, so a sharded run's audits must take
   their arena baseline and checks inside each shard's domain: a double
   free planted in one shard's flow driver has to surface in the merged
   summary. *)
let test_sharded_arena_audit () =
  let link src dst =
    {
      Shardnet.l_src = src;
      l_dst = dst;
      l_rate_bps = 1e6;
      l_prop_delay = 1e-3;
      l_qdisc =
        (fun () -> Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:8) ());
    }
  in
  let double_free engine _emit =
    ignore
      (Engine.schedule engine ~at:0.1 (fun () ->
           let p = Packet.make ~flow:0 ~seq:0 ~created:0.1 () in
           Packet.free p;
           Packet.free p))
  in
  let spec =
    {
      Shardnet.n_switches = 2;
      n_shards = 2;
      shard_of = [| 0; 1 |];
      links = [| link 0 1; link 1 0 |];
      flows = [| { Shardnet.f_src = 0; f_dst = 1; f_driver = double_free } |];
    }
  in
  let _, ex =
    Csz.Instr.run_sharded ~check:true ~metrics:false ~series:false ~until:1.
      spec
  in
  match ex.Csz.Instr.audit with
  | None -> Alcotest.fail "no audit summary under ~check"
  | Some s ->
      Alcotest.(check int) "double free flagged" 1 (violations "packet-arena" s)

let test_footer_lines () =
  let clean = Audit.finalize (Audit.create ()) in
  (match Audit.footer_lines ~label:"t" clean with
  | [ line ] ->
      Alcotest.(check bool) "prefixed" true
        (String.length line > 7 && String.sub line 0 7 = "[check]")
  | lines ->
      Alcotest.failf "clean summary should be one line, got %d"
        (List.length lines));
  let a = Audit.create () in
  let tap = Audit.tap a in
  tap.Tap.on_dequeue ~link:0 ~now:1.0 ~wait:(-1.) (Helpers.pkt ());
  let lines = Audit.footer_lines ~label:"t" (Audit.finalize a) in
  Alcotest.(check bool) "per-invariant + sample lines" true
    (List.length lines >= 3);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "includes a sample" true
    (List.exists (contains ~sub:"!!") lines)

let suite =
  [
    Alcotest.test_case "clean run has zero violations" `Quick
      test_clean_run_no_violations;
    Alcotest.test_case "work-conservation violation" `Quick
      test_work_conservation_violation;
    Alcotest.test_case "non-work-conserving exempt" `Quick
      test_non_work_conserving_exempt;
    Alcotest.test_case "conservation violation" `Quick
      test_conservation_violation;
    Alcotest.test_case "pool leak violation" `Quick test_pool_leak_violation;
    Alcotest.test_case "negative delay flagged" `Quick
      test_negative_delay_flagged;
    Alcotest.test_case "token bucket conformance" `Quick
      test_token_bucket_conformance;
    Alcotest.test_case "token bucket violation" `Quick
      test_token_bucket_violation;
    Alcotest.test_case "PG bound check" `Quick test_pg_bound;
    Alcotest.test_case "registration growth" `Quick test_registration_growth;
    Alcotest.test_case "sharded audit checks each shard's arena" `Quick
      test_sharded_arena_audit;
    Alcotest.test_case "footer lines" `Quick test_footer_lines;
  ]
