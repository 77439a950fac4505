(* Metrics registry, flight-recorder ring, per-hop delay attribution, and
   the -j independence of metrics snapshots. *)

module Metrics = Ispn_obs.Metrics
module Recorder = Ispn_obs.Recorder
module Attrib = Ispn_obs.Attrib

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Metrics registry --- *)

let test_registry_snapshot_sorted () =
  let m = Metrics.create () in
  Metrics.register_int m "b.two" (fun () -> 2);
  Metrics.register_float m "a.one" (fun () -> 1.5);
  Metrics.register_int m "c.three" (fun () -> 3);
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string)) "sorted names"
    [ "a.one"; "b.two"; "c.three" ]
    (List.map fst snap);
  (match List.assoc "a.one" snap with
  | Metrics.Float f -> Alcotest.(check (float 0.)) "float sampled" 1.5 f
  | Metrics.Int _ -> Alcotest.fail "expected a float")

let test_registry_pull_based () =
  let m = Metrics.create () in
  let cell = ref 0 in
  Metrics.register_int m "cell" (fun () -> !cell);
  cell := 41;
  incr cell;
  match Metrics.snapshot m with
  | [ ("cell", Metrics.Int 42) ] -> ()
  | _ -> Alcotest.fail "snapshot must sample at snapshot time"

let test_registry_duplicate_rejected () =
  let m = Metrics.create () in
  Metrics.register_int m "x" (fun () -> 0);
  try
    Metrics.register_float m "x" (fun () -> 1.);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_registry_stats_export () =
  let m = Metrics.create () in
  let st = Ispn_util.Stats.create () in
  Metrics.register_stats m "w" st;
  Ispn_util.Stats.add st 1.;
  Ispn_util.Stats.add st 3.;
  let snap = Metrics.snapshot m in
  (match List.assoc "w.count" snap with
  | Metrics.Int 2 -> ()
  | _ -> Alcotest.fail "count");
  match (List.assoc "w.mean" snap, List.assoc "w.min" snap,
         List.assoc "w.max" snap)
  with
  | Metrics.Float mean, Metrics.Float mn, Metrics.Float mx ->
      Alcotest.(check (float 1e-12)) "mean" 2. mean;
      Alcotest.(check (float 1e-12)) "min" 1. mn;
      Alcotest.(check (float 1e-12)) "max" 3. mx
  | _ -> Alcotest.fail "stats values must be floats"

let test_registry_empty_stats_omit_extrema () =
  (* While count = 0 min/max have no defined value: exporting 0 would be
     indistinguishable from a real zero observation, so they are omitted
     from the snapshot — and appear once the first sample lands. *)
  let m = Metrics.create () in
  let st = Ispn_util.Stats.create () in
  Metrics.register_stats m "w" st;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string))
    "empty distribution exports count and mean only" [ "w.count"; "w.mean" ]
    (List.map fst snap);
  (match List.assoc "w.count" snap with
  | Metrics.Int 0 -> ()
  | _ -> Alcotest.fail "count must read 0");
  Ispn_util.Stats.add st 2.5;
  Alcotest.(check (list string))
    "extrema appear with the first sample"
    [ "w.count"; "w.max"; "w.mean"; "w.min" ]
    (List.map fst (Metrics.snapshot m))

let test_render_formats () =
  let m = Metrics.create () in
  Metrics.register_int m "a" (fun () -> 1);
  Metrics.register_float m "b" (fun () -> 0.25);
  let labeled = [ ("run", Metrics.snapshot m) ] in
  let js = Metrics.render_json labeled in
  Alcotest.(check bool) "json labels keys" true
    (contains js "\"run.a\": 1" && contains js "\"run.b\": 0.25");
  let csv = Metrics.render_csv labeled in
  Alcotest.(check bool) "csv has both rows" true
    (contains csv "run.a,1" && contains csv "run.b,0.25")

(* --- Flight-recorder ring --- *)

let record_n r n =
  for i = 0 to n - 1 do
    Recorder.record r ~time:(float_of_int i) ~kind:Recorder.Enqueue ~link:0
      ~flow:0 ~seq:i ~cls:(-1) ~offset:0. ~value:0. ~cause:Recorder.No_cause
  done

let test_ring_keeps_newest () =
  let r = Recorder.create ~capacity:3 () in
  record_n r 5;
  Alcotest.(check int) "length capped" 3 (Recorder.length r);
  Alcotest.(check (list int)) "evicts oldest first" [ 2; 3; 4 ]
    (List.map (fun (e : Recorder.event) -> e.seq) (Recorder.events r))

let test_ring_invalid_capacity () =
  try
    ignore (Recorder.create ~capacity:0 ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_recorder_csv () =
  let r = Recorder.create ~capacity:4 () in
  Recorder.record r ~time:0.5 ~kind:Recorder.Dequeue ~link:1 ~flow:3 ~seq:9
    ~cls:0 ~offset:0.125 ~value:0.25 ~cause:Recorder.No_cause;
  Recorder.record r ~time:1.5 ~kind:Recorder.Drop ~link:2 ~flow:7 ~seq:11
    ~cls:(-1) ~offset:0. ~value:0. ~cause:Recorder.Buffer;
  let csv = Recorder.to_csv r in
  (match String.split_on_char '\n' csv with
  | header :: first :: second :: _ ->
      Alcotest.(check string) "typed header"
        "time,kind,link,flow,seq,cls,offset,value,cause" header;
      Alcotest.(check string) "dequeue row" "0.5,dequeue,1,3,9,0,0.125,0.25,-"
        first;
      Alcotest.(check string) "drop row with cause"
        "1.5,drop,2,7,11,-1,0,0,buffer" second
  | _ -> Alcotest.fail "expected header plus two rows");
  Alcotest.(check int) "one line per event plus header and trailing newline"
    4
    (List.length (String.split_on_char '\n' csv))

(* --- Per-hop attribution --- *)

(* A Figure-1 run with [r] attached to every link through the bundle. *)
let record_figure1 ~sched ~duration r =
  let instr = Csz.Instr.of_handles ~recorder:r () in
  ignore
    (Csz.Experiment.run ~instr ~qdisc_of:(Csz.Experiment.qdisc sched)
       ~duration ~seed:42L (Csz.Scenario.figure1 ()));
  ignore (Csz.Instr.finish instr)

(* The tentpole invariant: on a real multi-hop run, summing a packet's
   per-hop queueing delays out of the recorder must reproduce the
   end-to-end queueing delay the probes report (carried by Deliver). *)
let check_decomposition ~sched () =
  let r = Recorder.create ~capacity:(1 lsl 20) () in
  record_figure1 ~sched ~duration:20. r;
  let bds = Attrib.breakdowns r in
  Alcotest.(check bool) "reconstructed many packets" true
    (List.length bds > 1000);
  let complete = List.filter (fun b -> b.Attrib.bd_complete) bds in
  Alcotest.(check bool) "most packets complete" true
    (List.length complete * 2 > List.length bds);
  List.iter
    (fun b ->
      let sum =
        List.fold_left
          (fun acc h -> acc +. h.Attrib.queueing)
          0. b.Attrib.bd_hops
      in
      Alcotest.(check (float 1e-9)) "hop sum = bd_queueing" b.Attrib.bd_queueing
        sum;
      Alcotest.(check (float 1e-9)) "bd_queueing = reported e2e delay"
        b.Attrib.bd_reported b.Attrib.bd_queueing)
    complete

let test_attrib_worst () =
  let r = Recorder.create ~capacity:(1 lsl 20) () in
  record_figure1 ~sched:Csz.Experiment.Fifo_plus ~duration:10. r;
  let worst = Attrib.worst ~n:5 r in
  Alcotest.(check int) "asked for five" 5 (List.length worst);
  List.iter
    (fun b -> Alcotest.(check bool) "complete only" true b.Attrib.bd_complete)
    worst;
  let rec descending = function
    | a :: (b :: _ as rest) ->
        a.Attrib.bd_reported >= b.Attrib.bd_reported && descending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted worst-first" true (descending worst)

(* One bundle can hold an audit and a recorder: on Table 3's chain the
   run still audits clean, and the audit's tap leaves the ring exactly as
   a bundle holding the recorder alone fills it. *)
let test_audit_and_recorder_share_a_bundle () =
  let table3 instr =
    ignore (Csz.Experiment.run_table3 ~duration:10. ~instr ());
    Csz.Instr.finish instr
  in
  let both = Recorder.create ~capacity:65536 () in
  let ex =
    table3
      (Csz.Instr.of_handles ~audit:(Ispn_check.Audit.create ())
         ~recorder:both ())
  in
  let s = Option.get ex.Csz.Instr.audit in
  Alcotest.(check bool) "audit ran" true (s.Ispn_check.Audit.checks > 0);
  Alcotest.(check int) "audits clean" 0 s.Ispn_check.Audit.violations;
  let alone = Recorder.create ~capacity:65536 () in
  ignore (table3 (Csz.Instr.of_handles ~recorder:alone ()));
  Alcotest.(check int) "ring full" 65536 (Recorder.length both);
  Alcotest.(check string) "same ring with and without the audit"
    (Recorder.to_csv alone) (Recorder.to_csv both)

(* --- Snapshot determinism across the pool --- *)

let labeled_snapshots ~j =
  Ispn_exec.Pool.map ~j
    (fun sched ->
      let instr = Csz.Instr.create ~check:false ~metrics:true ~series:false in
      let _ =
        Csz.Experiment.run ~instr
          ~qdisc_of:
            (Csz.Experiment.qdisc ?metrics:(Csz.Instr.metrics instr) sched)
          ~duration:5. ~seed:42L
          (Csz.Scenario.single_link ())
      in
      ( Csz.Experiment.sched_name sched,
        Option.get (Csz.Instr.finish instr).snapshot ))
    [ Csz.Experiment.Fifo; Csz.Experiment.Wfq; Csz.Experiment.Fifo_plus ]

let test_snapshots_jobs_independent () =
  let a = Metrics.render_json (labeled_snapshots ~j:1) in
  let b = Metrics.render_json (labeled_snapshots ~j:4) in
  Alcotest.(check bool) "non-trivial" true (String.length a > 100);
  Alcotest.(check string) "byte-identical across -j" a b

let suite =
  [
    Alcotest.test_case "registry snapshot sorted" `Quick
      test_registry_snapshot_sorted;
    Alcotest.test_case "registry pull-based" `Quick test_registry_pull_based;
    Alcotest.test_case "registry duplicate rejected" `Quick
      test_registry_duplicate_rejected;
    Alcotest.test_case "registry stats export" `Quick
      test_registry_stats_export;
    Alcotest.test_case "registry empty stats omit extrema" `Quick
      test_registry_empty_stats_omit_extrema;
    Alcotest.test_case "render json and csv" `Quick test_render_formats;
    Alcotest.test_case "ring keeps newest" `Quick test_ring_keeps_newest;
    Alcotest.test_case "ring rejects capacity 0" `Quick
      test_ring_invalid_capacity;
    Alcotest.test_case "recorder csv dump" `Quick test_recorder_csv;
    Alcotest.test_case "audit and recorder share a bundle" `Slow
      test_audit_and_recorder_share_a_bundle;
    Alcotest.test_case "hop decomposition (FIFO+)" `Slow
      (check_decomposition ~sched:Csz.Experiment.Fifo_plus);
    Alcotest.test_case "hop decomposition (WFQ)" `Slow
      (check_decomposition ~sched:Csz.Experiment.Wfq);
    Alcotest.test_case "attrib worst" `Quick test_attrib_worst;
    Alcotest.test_case "snapshots independent of -j" `Quick
      test_snapshots_jobs_independent;
  ]
