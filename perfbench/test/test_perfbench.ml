(* The benchmark's own tests: the composed workloads are the library's
   runners, tracing does not perturb them, the wrappers count exactly, and
   every metric prints by name with its unit, as BENCHMARK.json lists it. *)

open Perfbench
open Ispn_sim

(* Short simulated durations: the same code paths, a fraction of a second
   each. *)
let short = function
  | "table3" -> 10.
  | "table2-audited" -> 5.
  | "scale" -> 2.
  | _ -> 5.

let seed = 7L

let run (w : Wl.t) ~trace = w.Wl.run ~duration:(short w.Wl.name) ~seed ~trace

let test_equals_runner (w : Wl.t) () =
  let o = run w ~trace:false in
  Alcotest.(check bool)
    "composed results equal the runner's" true
    (o.Wl.result = w.Wl.reference ~duration:(short w.Wl.name) ~seed)

let test_traced_identical (w : Wl.t) () =
  let plain = run w ~trace:false and traced = run w ~trace:true in
  Alcotest.(check bool)
    "traced results equal untraced results" true
    (plain.Wl.result = traced.Wl.result);
  Alcotest.(check int) "same hops" plain.Wl.st.Wl.hops traced.Wl.st.Wl.hops;
  Alcotest.(check int) "same events" plain.Wl.st.Wl.events
    traced.Wl.st.Wl.events

(* A transmission is dequeued when it starts and counted by its link when
   it finishes, so at the horizon each link may have one in flight. *)
let test_dequeues_cover_hops (w : Wl.t) ~links () =
  let o = run w ~trace:true in
  let tr = o.Wl.tr in
  let started = Tr.total_count tr Tr.b_dequeue - tr.Tr.idle_dequeues in
  let in_flight = started - o.Wl.st.Wl.hops in
  Alcotest.(check bool)
    (Printf.sprintf "0 <= %d in flight <= %d links" in_flight links)
    true
    (in_flight >= 0 && in_flight <= links)

(* Drained to idle, the identity is exact. *)
let test_dequeue_identity () =
  let engine = Engine.create () in
  let tr = Tr.create ~on:true in
  let pool = Qdisc.pool ~capacity:200 in
  let q = Tr.qdisc tr (Ispn_sched.Fifo.create ~pool ()) in
  let lk = Link.create ~engine ~rate_bps:1e6 ~qdisc:q ~name:"l" () in
  Link.set_receiver lk Packet.free;
  for i = 0 to 99 do
    ignore
      (Engine.schedule engine ~at:(float_of_int i *. 5e-4) (fun () ->
           Link.send lk
             (Packet.make ~flow:1 ~seq:i ~created:(Engine.now engine) ())))
  done;
  Engine.run_until_idle engine ~max_events:100_000;
  Alcotest.(check int) "enqueues" 100 (Tr.total_count tr Tr.b_enqueue);
  Alcotest.(check int) "rejects" 0 tr.Tr.rejects;
  Alcotest.(check int) "dequeues - idle = sent" (Link.sent lk)
    (Tr.total_count tr Tr.b_dequeue - tr.Tr.idle_dequeues);
  Alcotest.(check int) "sent" 100 (Link.sent lk)

(* Table 2 exposes every wrapped boundary to an independent count. *)
let test_table2_counts () =
  let w = Option.get (Wl.find "table2-audited") in
  let o = run w ~trace:true in
  let tr = o.Wl.tr and st = o.Wl.st in
  let (runs : (Csz.Experiment.sched * Csz.Experiment.flow_result list
               * Csz.Experiment.run_info * Ispn_check.Audit.summary) list),
      _, _ =
    Marshal.from_string o.Wl.result 0
  in
  let received =
    List.fold_left
      (fun acc (_, rs, _, _) ->
        List.fold_left
          (fun acc (r : Csz.Experiment.flow_result) -> acc + r.received)
          acc rs)
      0 runs
  in
  let audit_events =
    List.fold_left (fun acc (_, _, _, s) -> acc + s.Ispn_check.Audit.events) 0 runs
  in
  Alcotest.(check int) "emits = packets offered to policers" st.Wl.offered
    (Tr.total_count tr Tr.b_emit);
  Alcotest.(check int) "sink calls = packets received" received
    (Tr.total_count tr Tr.b_sink);
  Alcotest.(check int) "audit callbacks = audit events" audit_events
    (Tr.total_count tr Tr.b_audit);
  Alcotest.(check int) "hist adds = dequeues started"
    (Tr.total_count tr Tr.b_dequeue - tr.Tr.idle_dequeues)
    (Tr.total_count tr Tr.b_hist);
  Alcotest.(check int) "no violations" 0 st.Wl.violations

(* {2 Output} *)

let metric_re name unit =
  Str.regexp
    (Str.quote (Printf.sprintf "%S: {\"value\": " name)
    ^ "-?[0-9][0-9.e+-]*"
    ^ Str.quote (Printf.sprintf ", \"unit\": %S}" unit))

let contains re s =
  match Str.search_forward re s 0 with _ -> true | exception Not_found -> false

let test_metrics_print () =
  let w = Option.get (Wl.find "table3") in
  let plain = run w ~trace:false and traced = run w ~trace:true in
  let ov = Tr.calibrate () in
  let e2e =
    Catalog.e2e_summary [ plain ] @ [ ("peak_heap_mb", Catalog.heap_mb plain) ]
  in
  let layer =
    Catalog.layer_metrics
      ~traced:(Catalog.traced_layer ov traced)
      ~untraced:(Catalog.untraced_layer plain)
  in
  List.iter
    (fun (metrics, catalogue) ->
      let line =
        Catalog.result_line ~correct:true ~attempted:1 ~failed:0 metrics
      in
      Alcotest.(check int) "one entry per metric" (List.length catalogue)
        (List.length metrics);
      List.iter
        (fun (m : Catalog.metric) ->
          Alcotest.(check bool)
            (m.name ^ " prints with its unit")
            true
            (contains (metric_re m.name m.unit) line))
        catalogue)
    [ (e2e, Catalog.end_to_end); (layer, Catalog.per_layer) ];
  (* The breakdown adds up to the traced run phase by construction; the
     remainder is what no layer covers. *)
  let rows = Catalog.breakdown ov traced in
  let sum = List.fold_left (fun acc r -> acc +. r.Catalog.self_ns) 0. rows in
  Alcotest.(check (float 1.)) "breakdown sums to the run phase"
    (float_of_int traced.Wl.st.Wl.run_ns) sum

let read_file path = In_channel.with_open_bin path In_channel.input_all

let all_matches ~groups re s =
  let rec go pos acc =
    match Str.search_forward re s pos with
    | _ ->
        let groups = List.init groups (fun i -> Str.matched_group (i + 1) s) in
        go (Str.match_end ()) (groups :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

let test_benchmark_json () =
  let json = read_file "../../BENCHMARK.json" in
  let metrics =
    all_matches ~groups:3
      (Str.regexp
         {|{"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([^"]*\)"|})
      json
  in
  let catalogue =
    List.map
      (fun (m : Catalog.metric) -> [ m.name; m.unit; m.better ])
      (Catalog.end_to_end @ Catalog.per_layer)
  in
  Alcotest.(check (list (list string))) "metrics as catalogued" catalogue metrics;
  let workloads =
    all_matches ~groups:1 (Str.regexp {|{"name": "\([^"]*\)", "why"|}) json
    |> List.map List.hd
  in
  Alcotest.(check (list string))
    "workloads as catalogued"
    (List.map (fun (w : Wl.t) -> w.Wl.name) Wl.all)
    workloads

let () =
  let per_workload name f =
    List.map
      (fun (w : Wl.t) -> Alcotest.test_case (name ^ " " ^ w.Wl.name) `Quick (f w))
      Wl.all
  in
  let wl n = Option.get (Wl.find n) in
  Alcotest.run "perfbench"
    [
      ("runner", per_workload "equals runner:" test_equals_runner);
      ("trace", per_workload "traced identical:" test_traced_identical);
      ( "counts",
        [
          Alcotest.test_case "dequeue identity when drained" `Quick
            test_dequeue_identity;
          Alcotest.test_case "dequeues cover hops: table3" `Quick
            (test_dequeues_cover_hops (wl "table3") ~links:4);
          Alcotest.test_case "dequeues cover hops: scale" `Quick
            (test_dequeues_cover_hops (wl "scale") ~links:38);
          Alcotest.test_case "table2-audited boundary counts" `Quick
            test_table2_counts;
        ] );
      ( "output",
        [
          Alcotest.test_case "every metric prints with its unit" `Quick
            test_metrics_print;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick
            test_benchmark_json;
        ] );
    ]
