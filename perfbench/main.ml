(* perfbench: whole-run host cost of the simulator's workloads, by layer.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one composed rep and the workload's library runner, and checks
   they agree; then repeats reps for S seconds of host time.  With
   --trace 0 every rep is untraced and the last stdout line carries the
   end-to-end metrics (see Catalog.e2e_summary); with --trace 1 untraced and
   traced reps alternate, each traced result must equal the untraced one,
   and the last line carries the per-layer metrics, after a breakdown
   table of the traced run phase.  A sample of spans goes to
   _perfbench/spans-<workload>-seed<N>.csv. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat " " (List.map (fun w -> w.Wl.name) Wl.all));
  exit 2

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds < 1 then usage ();
  match Wl.find !workload with
  | Some w -> (w, !seed, !seconds, !trace)
  | None -> usage ()

let min_reps = 3

let () =
  let w, seed_n, seconds, trace = parse () in
  let seed = Int64.of_int seed_n and duration = w.Wl.duration in
  let attempted = ref 0 and failed = ref 0 in
  let fail why =
    incr failed;
    Printf.eprintf "perfbench: %s: %s\n%!" w.Wl.name why
  in
  (* One rep: raising, breaking an invariant, or disagreeing with the
     expected result counts it as failed. *)
  let attempt ~trace ~expect =
    incr attempted;
    match w.Wl.run ~duration ~seed ~trace with
    | exception e -> fail (Printexc.to_string e); None
    | o ->
        if o.Wl.st.Wl.violations > 0 then
          fail (Printf.sprintf "%d audit violations" o.Wl.st.Wl.violations);
        if o.Wl.st.Wl.leaked > 0 then
          fail (Printf.sprintf "%d leaked reservations" o.Wl.st.Wl.leaked);
        (match expect with
        | Some r when r <> o.Wl.result ->
            fail
              (if trace then "traced results differ from untraced results"
               else "results differ from the first rep")
        | _ -> ());
        Some o
  in
  (* The first rep, untimed, also samples the live heap (a full collection
     at the end of each simulation phase). *)
  Wl.sample_live := true;
  let first = attempt ~trace:false ~expect:None in
  Wl.sample_live := false;
  let peak_heap_mb =
    match first with Some o -> Catalog.heap_mb o | None -> 0.
  in
  let reference =
    match w.Wl.reference ~duration ~seed with
    | r -> Some r
    | exception e -> fail ("library runner: " ^ Printexc.to_string e); None
  in
  let correct_first =
    match (first, reference) with
    | Some o, Some r when o.Wl.result = r -> true
    | Some _, Some _ -> fail "results differ from the library runner"; false
    | _ -> false
  in
  let expect = reference in
  let plain = ref [] and traced = ref [] in
  let deadline = Tr.now_ns () + (seconds * 1_000_000_000) in
  while Tr.now_ns () < deadline || List.length !plain < min_reps do
    (match attempt ~trace:false ~expect with
    | Some o ->
        plain := o :: !plain;
        Printf.eprintf "rep %d: %s\n%!" (List.length !plain)
          (String.concat " "
             (List.map (fun (k, v) -> Printf.sprintf "%s=%.6g" k v) (Catalog.e2e o)))
    | None -> ());
    if trace then
      match attempt ~trace:true ~expect with
      | Some o -> traced := o :: !traced
      | None -> ()
  done;
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d ocaml=%s \
     shards=%d sim_s=%g reps=%d\n"
    w.Wl.name seed_n seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version w.Wl.shards duration (List.length !plain);
  let metrics =
    if not trace then
      Catalog.e2e_summary !plain @ [ ("peak_heap_mb", peak_heap_mb) ]
    else begin
      let ov = Tr.calibrate () in
      let untraced = Catalog.median_of (List.map Catalog.untraced_layer !plain) in
      let traced_m =
        Catalog.median_of (List.map (Catalog.traced_layer ov) !traced)
      in
      (* The breakdown of the traced rep whose run phase is the median. *)
      (match
         List.sort
           (fun (a : Wl.outcome) b -> compare a.st.run_ns b.st.run_ns)
           !traced
       with
      | [] -> ()
      | l ->
          let o = List.nth l (List.length l / 2) in
          print_string
            (Catalog.render_breakdown ~workload:w.Wl.name ~shards:w.Wl.shards
               ~hops:o.Wl.st.Wl.hops
               (Catalog.breakdown ov o));
          Printf.printf "# clock overhead per span: %.1f ns inside, %.1f ns total\n"
            ov.Tr.inner ov.Tr.outer;
          (try
             if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
             Tr.write_spans o.Wl.tr
               (Printf.sprintf "_perfbench/spans-%s-seed%d.csv" w.Wl.name seed_n)
           with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n" e));
      Catalog.layer_metrics ~traced:traced_m ~untraced
    end
  in
  print_endline
    (Catalog.result_line
       ~correct:(correct_first && !failed = 0)
       ~attempted:!attempted ~failed:!failed metrics)
