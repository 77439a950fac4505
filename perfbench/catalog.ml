(* The metric catalogue and the per-workload breakdown.

   End-to-end metrics come from untraced reps; per-layer metrics from
   traced reps, except those that tracing itself would move (garbage
   collection, events per second, the tracing overhead), which come from
   the untraced reps of the same run.  BENCHMARK.json lists the same
   names and units; the benchmark's tests check that it does. *)

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "wall_s" "s" "lower";
    m "setup_s" "s" "lower";
    m "ns_per_hop" "ns" "lower";
    m "peak_heap_mb" "MB" "lower";
  ]

let per_layer =
  [
    m "engine.events" "count" "lower";
    m "engine.events_per_hop" "ratio" "lower";
    m "engine.events_per_s" "1/s" "higher";
    m "engine.cancel_skip_ratio" "ratio" "lower";
    m "engine.pending_hwm" "count" "lower";
    m "sched.enqueues" "count" "lower";
    m "sched.dequeues" "count" "lower";
    m "sched.idle_dequeues" "count" "lower";
    m "sched.rejects" "count" "lower";
    m "sched.ns_per_enqueue" "ns" "lower";
    m "sched.ns_per_dequeue" "ns" "lower";
    m "sched.share" "ratio" "lower";
    m "traffic.emits" "count" "lower";
    m "traffic.policer_drop_ratio" "ratio" "lower";
    m "traffic.ns_per_emit" "ns" "lower";
    m "traffic.share" "ratio" "lower";
    m "sink.delivered" "count" "higher";
    m "sink.ns_per_delivery" "ns" "lower";
    m "sink.share" "ratio" "lower";
    m "shardnet.windows" "count" "lower";
    m "shardnet.exchanged_per_hop" "ratio" "lower";
    m "shardnet.hop_imbalance" "ratio" "lower";
    m "shardnet.busy_share" "ratio" "lower";
    m "signaling.sessions" "count" "higher";
    m "signaling.ns_per_setup" "ns" "lower";
    m "signaling.ns_per_depart" "ns" "lower";
    m "signaling.control_per_session" "ratio" "lower";
    m "signaling.refresh_share" "ratio" "lower";
    m "signaling.retries_per_setup" "ratio" "lower";
    m "signaling.established_ratio" "ratio" "higher";
    m "signaling.share" "ratio" "lower";
    m "audit.callbacks" "count" "lower";
    m "audit.ns_per_callback" "ns" "lower";
    m "audit.checks" "count" "higher";
    m "audit.violations" "count" "lower";
    m "audit.share" "ratio" "lower";
    m "obs.hist_adds" "count" "lower";
    m "obs.ns_per_hist_add" "ns" "lower";
    m "obs.series_ticks" "count" "lower";
    m "obs.export_s" "s" "lower";
    m "obs.share" "ratio" "lower";
    m "gc.minor_words_per_hop" "words" "lower";
    m "gc.setup_minor_words" "words" "lower";
    m "gc.major_collections" "count" "lower";
    m "remainder.ns_per_hop" "ns" "lower";
    m "remainder.share" "ratio" "lower";
    m "trace.overhead" "ratio" "lower";
  ]

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("Catalog.unit_of: " ^ name)

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Medians over reps, metric by metric; every rep yields the same names. *)
let median_of (reps : (string * float) list list) =
  match reps with
  | [] -> []
  | r0 :: _ ->
      List.map
        (fun (name, _) -> (name, median (List.map (List.assoc name) reps)))
        r0

(* The largest live major heap at the end of a simulation phase.  The
   sharded workload's simulation state lives in its shard domains and is
   gone by the time the main domain can look, so it reports the process's
   heap high-water mark instead. *)
let heap_mb (o : Wl.outcome) =
  let words =
    if o.st.live_words > 0 then o.st.live_words else o.st.top_heap_words
  in
  fi (words * (Sys.word_size / 8)) /. 1048576.

(* {2 End to end, from one untraced rep} *)

let e2e (o : Wl.outcome) =
  let st = o.st in
  [
    ("wall_s", fi st.wall_ns /. 1e9);
    ("setup_s", fi st.setup_ns /. 1e9);
    ("ns_per_hop", div (fi st.run_ns) (fi st.hops));
  ]

(* Interference from other work on the host only ever adds time, and it
   comes in bursts longer than a rep: the fastest rep is the steadiest
   estimate of the program's own cost, so run-long timings report it.
   Set-up, a sub-millisecond phase, reports the median of its reps. *)
let e2e_summary reps =
  let per = List.map e2e reps in
  let col name = List.map (List.assoc name) per in
  let least xs = List.fold_left Float.min infinity xs in
  [
    ("wall_s", least (col "wall_s"));
    ("setup_s", median (col "setup_s"));
    ("ns_per_hop", least (col "ns_per_hop"));
  ]

(* Per-layer figures that tracing would disturb, from one untraced rep. *)
let untraced_layer (o : Wl.outcome) =
  let st = o.st in
  [
    ("plain_run_ns", fi st.run_ns);
    ("gc.minor_words_per_hop", div st.run_minor (fi st.hops));
    ("gc.setup_minor_words", st.setup_minor);
    ("gc.major_collections", fi st.major_collections);
    ("engine.events_per_s", div (fi st.events) (fi st.run_ns /. 1e9));
  ]

(* {2 The breakdown of one traced rep's run phase} *)

type row = { layer : string; self_ns : float }

(* Domain-time of the run phase: a sharded run's layers run on every shard
   at once, so its breakdown divides the run phase times the shard count,
   and its remainder includes the time shards wait at barriers. *)
let capacity_ns (o : Wl.outcome) =
  fi o.st.run_ns *. fi (max 1 (Array.length o.shard_trs))

let breakdown (ov : Tr.overhead) (o : Wl.outcome) =
  let tr = o.tr in
  let self b = Tr.run_self_ns ov tr b in
  let layers =
    [
      { layer = "sched"; self_ns = self Tr.b_enqueue +. self Tr.b_dequeue };
      { layer = "traffic"; self_ns = self Tr.b_emit };
      { layer = "sink"; self_ns = self Tr.b_sink };
      { layer = "signaling"; self_ns = self Tr.b_setup +. self Tr.b_depart };
      { layer = "audit"; self_ns = self Tr.b_audit };
      { layer = "obs"; self_ns = self Tr.b_hist };
      { layer = "trace"; self_ns = fi (Tr.run_spans tr) *. ov.Tr.outer };
    ]
  in
  let covered = List.fold_left (fun acc r -> acc +. r.self_ns) 0. layers in
  layers @ [ { layer = "remainder"; self_ns = capacity_ns o -. covered } ]

let traced_layer (ov : Tr.overhead) (o : Wl.outcome) =
  let st = o.st and tr = o.tr in
  let hops = fi st.hops and run = fi st.run_ns in
  let self b = Tr.run_self_ns ov tr b in
  let per b = div (self b) (fi tr.Tr.run_count.(b)) in
  let count b = fi (Tr.total_count tr b) in
  let rows = breakdown ov o in
  let share l =
    div (List.find (fun r -> r.layer = l) rows).self_ns (capacity_ns o)
  in
  let shard_busy =
    match o.shard_trs with
    | [||] -> 0.
    | trs ->
        let busy t =
          let s = ref 0. in
          for b = 0 to Tr.n_bounds - 1 do
            s := !s +. Tr.run_self_ns ov t b
          done;
          div !s run
        in
        Array.fold_left (fun acc t -> acc +. busy t) 0. trs
        /. fi (Array.length trs)
  in
  let hop_imbalance =
    match st.shard_hops with
    | [||] -> 0.
    | h ->
        let mx = Array.fold_left max 0 h in
        div (fi mx) (div hops (fi (Array.length h)))
  in
  [
    ("engine.events", fi st.events);
    ("engine.events_per_hop", div (fi st.events) hops);
    ("engine.cancel_skip_ratio", div (fi st.skipped) (fi (st.events + st.skipped)));
    ("engine.pending_hwm", fi st.pending_hwm);
    ("sched.enqueues", count Tr.b_enqueue);
    ("sched.dequeues", count Tr.b_dequeue);
    ("sched.idle_dequeues", fi tr.Tr.idle_dequeues);
    ("sched.rejects", fi tr.Tr.rejects);
    ("sched.ns_per_enqueue", per Tr.b_enqueue);
    ("sched.ns_per_dequeue", per Tr.b_dequeue);
    ("sched.share", share "sched");
    ("traffic.emits", count Tr.b_emit);
    ("traffic.policer_drop_ratio", div (fi st.policed) (fi st.offered));
    ("traffic.ns_per_emit", per Tr.b_emit);
    ("traffic.share", share "traffic");
    ("sink.delivered", count Tr.b_sink);
    ("sink.ns_per_delivery", per Tr.b_sink);
    ("sink.share", share "sink");
    ("shardnet.windows", fi st.windows);
    ("shardnet.exchanged_per_hop", div (fi st.exchanged) hops);
    ("shardnet.hop_imbalance", hop_imbalance);
    ("shardnet.busy_share", shard_busy);
    ("signaling.sessions", fi st.sessions);
    ("signaling.ns_per_setup", per Tr.b_setup);
    ("signaling.ns_per_depart", per Tr.b_depart);
    ("signaling.control_per_session", div (fi st.control) (fi st.sessions));
    ("signaling.refresh_share", div (fi st.refresh) (fi st.control));
    ("signaling.retries_per_setup", div (fi st.retries) (fi st.sessions));
    ("signaling.established_ratio", div (fi st.established) (fi st.sessions));
    ("signaling.share", share "signaling");
    ("audit.callbacks", count Tr.b_audit);
    ("audit.ns_per_callback", per Tr.b_audit);
    ("audit.checks", fi st.audit_checks);
    ("audit.violations", fi st.violations);
    ("audit.share", share "audit");
    ("obs.hist_adds", count Tr.b_hist);
    ("obs.ns_per_hist_add", per Tr.b_hist);
    ("obs.series_ticks", fi st.series_ticks);
    ("obs.export_s", fi st.export_ns /. 1e9);
    ("obs.share", share "obs");
    ("remainder.ns_per_hop", div (share "remainder" *. capacity_ns o) hops);
    ("remainder.share", share "remainder");
    ("traced_run_ns", run);
  ]

(* Every per-layer metric, from the medians of the traced and untraced
   reps of one run. *)
let layer_metrics ~traced ~untraced =
  let pick name =
    match List.assoc_opt name traced with
    | Some v -> v
    | None -> List.assoc name untraced
  in
  let overhead =
    div (List.assoc "traced_run_ns" traced) (List.assoc "plain_run_ns" untraced)
  in
  List.map
    (fun x ->
      (x.name, if x.name = "trace.overhead" then overhead else pick x.name))
    per_layer

(* {2 Output} *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) (unit_of name))
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

let render_breakdown ~workload ~shards ~hops rows =
  let run = List.fold_left (fun acc r -> acc +. r.self_ns) 0. rows in
  let b = Buffer.create 512 in
  Printf.bprintf b
    "breakdown %s: traced run phase %.3f ms x %d domain(s) over %d hops\n"
    workload
    (run /. 1e6 /. fi shards)
    shards hops;
  Printf.bprintf b "  %-10s %12s %8s %10s\n" "layer" "self ms" "share" "ns/hop";
  List.iter
    (fun r ->
      Printf.bprintf b "  %-10s %12.3f %7.1f%% %10.1f\n" r.layer
        (r.self_ns /. 1e6)
        (100. *. div r.self_ns run)
        (div r.self_ns (fi hops)))
    rows;
  Buffer.contents b
