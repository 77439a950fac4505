(* Time-series sampler and log-bucketed delay histograms: percentile
   accuracy against the exact Quantile oracle, export shape, and the
   -j independence of merged series exports. *)

module Metrics = Ispn_obs.Metrics
module Series = Ispn_obs.Series
module Hist = Ispn_obs.Hist
module Loghist = Ispn_util.Loghist

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- Loghist --- *)

let test_loghist_layout () =
  let h = Loghist.create ~lo:1e-3 ~hi:1e3 ~per_decade:10 () in
  Loghist.add h 1e-4;
  (* underflow *)
  Loghist.add h 1e4;
  (* overflow *)
  Loghist.add h (-1.);
  (* negative counts as underflow *)
  Loghist.add h 0.5;
  Alcotest.(check int) "count" 4 (Loghist.count h);
  Alcotest.(check int) "underflow" 2 (Loghist.underflow h);
  Alcotest.(check int) "overflow" 1 (Loghist.overflow h);
  (match Loghist.buckets h with
  | [ (lower, upper, 1) ] ->
      Alcotest.(check bool) "0.5 in its bucket" true
        (lower <= 0.5 && 0.5 < upper)
  | _ -> Alcotest.fail "expected exactly one regular bucket");
  (* p25 falls on the underflow bucket (represented as 0), p100 on
     overflow (represented as hi). *)
  Alcotest.(check (float 0.)) "underflow reads 0" 0. (Loghist.percentile h 25.);
  Alcotest.(check (float 0.)) "overflow reads hi" 1e3
    (Loghist.percentile h 100.)

let test_loghist_empty_raises () =
  let h = Loghist.create () in
  (try
     ignore (Loghist.percentile h 50.);
     Alcotest.fail "expected Invalid_argument on empty"
   with Invalid_argument _ -> ());
  try
    ignore (Loghist.create ~lo:2. ~hi:1. ());
    Alcotest.fail "expected Invalid_argument on lo >= hi"
  with Invalid_argument _ -> ()

let test_loghist_render () =
  let h = Loghist.create ~lo:1. ~hi:100. ~per_decade:10 () in
  List.iter (Loghist.add h) [ 0.; 0.; 1.1; 1.2; 50.; 500. ];
  let lines =
    String.split_on_char '\n' (String.trim (Loghist.render ~unit_label:"x" h))
  in
  (* Underflow, the two non-empty buckets, overflow; empty buckets are
     skipped. *)
  Alcotest.(check int) "one line per non-empty bucket" 4 (List.length lines);
  Alcotest.(check bool) "underflow first" true
    (contains (List.hd lines) "<1.00");
  Alcotest.(check bool) "overflow last" true
    (contains (List.nth lines 3) ">=100.00");
  Alcotest.(check bool) "modal bucket spans 50 characters" true
    (contains (List.hd lines) ("|" ^ String.make 50 '#' ^ " 2"));
  Alcotest.(check string) "empty renders nothing" ""
    (Loghist.render ~unit_label:"x" (Loghist.create ()))

let qcheck_loghist_conservation =
  QCheck.Test.make ~name:"loghist conserves observations" ~count:300
    QCheck.(list (float_range (-10.) 2000.))
    (fun xs ->
      let h = Loghist.create ~lo:1. ~hi:1000. ~per_decade:7 () in
      List.iter (Loghist.add h) xs;
      let binned =
        List.fold_left (fun acc (_, _, n) -> acc + n)
          (Loghist.underflow h + Loghist.overflow h)
          (Loghist.buckets h)
      in
      binned = List.length xs && Loghist.count h = List.length xs)

(* The satellite contract: a histogram percentile must agree with the
   exact nearest-rank value over the full sample set to within one
   bucket's relative error.  The reported value is a bucket's geometric
   midpoint, so each side is off by at most sqrt(r); r^2 leaves margin
   for the sample sitting on a bucket edge. *)
let qcheck_percentile_oracle =
  QCheck.Test.make ~name:"loghist percentile tracks exact nearest-rank"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 400) (float_range 1e-5 99.))
    (fun samples ->
      let h = Loghist.create () in
      List.iter (Loghist.add h) samples;
      let sorted = Array.of_list (List.sort Float.compare samples) in
      let tol = Loghist.ratio h ** 2. in
      List.for_all
        (fun p ->
          let exact = Ispn_util.Quantile.of_sorted sorted (p /. 100.) in
          let approx = Loghist.percentile h p in
          approx <= exact *. tol && approx >= exact /. tol)
        [ 50.; 90.; 99.; 99.9 ])

(* --- Hist channels over a Metrics registry --- *)

let test_hist_channel_metrics () =
  let m = Metrics.create () in
  let h = Hist.create ~metrics:m () in
  let ch = Hist.channel h "link.0.wait" in
  Alcotest.(check bool) "same channel on re-get" true
    (ch == Hist.channel h "link.0.wait");
  (* Empty channel: count reads 0, percentile instruments are omitted
     (same rule as an empty distribution's min/max). *)
  Alcotest.(check (list string))
    "empty channel exports count only"
    [ "hist.link.0.wait.count" ]
    (List.map fst (Metrics.snapshot m));
  Loghist.add ch 0.004;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string))
    "percentiles appear with the first sample"
    [
      "hist.link.0.wait.count"; "hist.link.0.wait.p50"; "hist.link.0.wait.p90";
      "hist.link.0.wait.p99"; "hist.link.0.wait.p999";
    ]
    (List.map fst snap);
  match List.assoc "hist.link.0.wait.p50" snap with
  | Metrics.Float v ->
      let r = Loghist.ratio ch in
      Alcotest.(check bool) "p50 within one bucket of the only sample" true
        (v <= 0.004 *. r && v >= 0.004 /. r)
  | _ -> Alcotest.fail "expected a float percentile"

(* --- Series sampling and export --- *)

let test_series_invalid_interval () =
  let m = Metrics.create () in
  try
    ignore (Series.create ~interval:0. ~metrics:m ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_series_export_shape () =
  let m = Metrics.create () in
  let c = ref 0 in
  Metrics.register_int m "a.count" (fun () -> !c);
  let late = ref None in
  Metrics.register_opt m "b.late" (fun () -> !late);
  let s = Series.create ~interval:0.5 ~metrics:m () in
  Series.sample s ~now:0.;
  c := 3;
  late := Some (Metrics.Float 2.5);
  Series.sample s ~now:0.5;
  Alcotest.(check int) "two rows" 2 (Series.length s);
  let e = Series.export s in
  Alcotest.(check (float 0.)) "interval" 0.5 e.Series.ex_interval;
  Alcotest.(check (array (float 0.))) "times" [| 0.; 0.5 |] e.Series.ex_times;
  Alcotest.(check (list string)) "columns name-sorted"
    [ "a.count"; "b.late" ]
    (List.map fst e.Series.ex_columns);
  Alcotest.(check (array (float 0.))) "sampled column" [| 0.; 3. |]
    (List.assoc "a.count" e.Series.ex_columns);
  (* An instrument absent at some tick reads 0 there. *)
  Alcotest.(check (array (float 0.))) "absent cell reads 0" [| 0.; 2.5 |]
    (List.assoc "b.late" e.Series.ex_columns)

let test_series_render () =
  let m = Metrics.create () in
  Metrics.register_int m "a" (fun () -> 1);
  let s = Series.create ~interval:1. ~metrics:m () in
  Series.sample s ~now:0.;
  Series.sample s ~now:1.;
  let h = Hist.create ~metrics:m () in
  Loghist.add (Hist.channel h "x") 0.01;
  let labeled = [ ("run", Series.export ~hist:h s) ] in
  let js = Series.render_json labeled in
  Alcotest.(check bool) "json has times, series and hist" true
    (contains js "\"times\": [0, 1]"
    && contains js "\"a\": [1, 1]"
    && contains js "\"x\"" && contains js "\"p999\"");
  let csv = Series.render_csv labeled in
  Alcotest.(check bool) "csv long rows" true
    (contains csv "label,time,name,value"
    && contains csv "run,0,a,1" && contains csv "run,1,a,1");
  Alcotest.(check bool) "csv hist summary rows have an empty time" true
    (contains csv "run,,hist.x.count,1" && contains csv "run,,hist.x.p50,");
  (* Channels with zero samples are skipped entirely. *)
  let h2 = Hist.create () in
  ignore (Hist.channel h2 "empty");
  let e2 = Series.export ~hist:h2 s in
  Alcotest.(check int) "empty channel skipped" 0
    (List.length e2.Series.ex_hists)

let test_attach_series_ticks () =
  let e = Ispn_sim.Engine.create () in
  let m = Metrics.create () in
  let n = ref 0 in
  Metrics.register_int m "n" (fun () -> !n);
  let s = Series.create ~metrics:m () in
  Ispn_sim.Engine.attach_series e s;
  ignore (Ispn_sim.Engine.schedule_after e ~delay:2.5 (fun () -> n := 7));
  Ispn_sim.Engine.run e ~until:5.;
  let ex = Series.export s in
  Alcotest.(check bool) "at least five ticks" true
    (Array.length ex.Series.ex_times >= 5);
  Array.iteri
    (fun i t ->
      Alcotest.(check (float 0.)) "ticks at the sim-time interval"
        (float_of_int i) t)
    ex.Series.ex_times;
  let col = List.assoc "n" ex.Series.ex_columns in
  Alcotest.(check (float 0.)) "before the bump" 0. col.(2);
  Alcotest.(check (float 0.)) "after the bump" 7. col.(3)

(* The unified scheduler reports guaranteed packets to its delay hook
   with [cls = -1]; the per-class channels must skip them rather than
   index out of bounds, and observing must not change the table. *)
let test_table3_series_skips_guaranteed () =
  let instr = Csz.Instr.create ~check:false ~metrics:false ~series:true in
  let h = Option.get (Csz.Instr.hist instr) in
  let observed = Csz.Experiment.run_table3 ~duration:5. ~instr () in
  let plain = Csz.Experiment.run_table3 ~duration:5. () in
  Alcotest.(check string) "table unchanged by --series"
    (Csz.Report.table3 plain) (Csz.Report.table3 observed);
  let counts prefix =
    List.fold_left
      (fun acc (name, lh) ->
        if String.starts_with ~prefix name then acc + Loghist.count lh
        else acc)
      0 (Hist.export h)
  in
  let classes = counts "csz.class." and waits = counts "link." in
  Alcotest.(check bool) "class channels fed" true (classes > 0);
  Alcotest.(check bool) "guaranteed packets not in any class" true
    (classes < waits)

(* --- Merge determinism across the pool --- *)

(* Job 0 simulates longer than job 1, so under -j 2 the jobs complete in
   the opposite of submission order; the merged export must not care. *)
let series_runs ~j =
  Ispn_exec.Pool.map ~j
    (fun (name, sched, dur) ->
      let instr = Csz.Instr.create ~check:false ~metrics:false ~series:true in
      let _ =
        Csz.Experiment.run ~instr
          ~qdisc_of:
            (Csz.Experiment.qdisc ?metrics:(Csz.Instr.metrics instr) sched)
          ~duration:dur ~seed:42L
          (Csz.Scenario.single_link ())
      in
      (name, Option.get (Csz.Instr.finish instr).timeline))
    [
      ("slow", Csz.Experiment.Wfq, 8.); ("fast", Csz.Experiment.Fifo, 2.);
    ]

let test_series_merge_jobs_independent () =
  let a = Series.render_json (series_runs ~j:1) in
  let b = Series.render_json (series_runs ~j:2) in
  Alcotest.(check bool) "non-trivial" true (String.length a > 200);
  Alcotest.(check string) "byte-identical across -j" a b

let suite =
  [
    Alcotest.test_case "loghist bucket layout" `Quick test_loghist_layout;
    Alcotest.test_case "loghist raises on empty and bad bounds" `Quick
      test_loghist_empty_raises;
    Alcotest.test_case "loghist render" `Quick test_loghist_render;
    QCheck_alcotest.to_alcotest qcheck_loghist_conservation;
    QCheck_alcotest.to_alcotest qcheck_percentile_oracle;
    Alcotest.test_case "hist channels register instruments" `Quick
      test_hist_channel_metrics;
    Alcotest.test_case "series rejects interval 0" `Quick
      test_series_invalid_interval;
    Alcotest.test_case "series export shape" `Quick test_series_export_shape;
    Alcotest.test_case "series render json and csv" `Quick test_series_render;
    Alcotest.test_case "engine ticks at the sim-time interval" `Quick
      test_attach_series_ticks;
    Alcotest.test_case "series merge independent of -j" `Quick
      test_series_merge_jobs_independent;
    Alcotest.test_case "table3 series skips guaranteed packets" `Quick
      test_table3_series_skips_guaranteed;
  ]
