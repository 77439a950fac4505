(* The domain pool's contract: fan-out must be invisible.  Results are
   bit-identical for every [-j], including across real simulation jobs, and
   a crashing job takes down its own slot only. *)

module Pool = Ispn_exec.Pool

(* A deterministic, allocation-heavy job keyed on its input: chews through
   its own PRNG stream, as every real simulation job does. *)
let job x =
  let prng = Ispn_util.Prng.create ~seed:(Int64.of_int ((x * 2654435761) + 1)) in
  let acc = ref 0 in
  for _ = 1 to 200 + (abs x mod 57) do
    acc := !acc lxor (Int64.to_int (Ispn_util.Prng.int64 prng) land 0xffffff)
  done;
  (x, !acc)

let qcheck_pool_determinism =
  QCheck.Test.make ~name:"pool results identical for -j 1/2/4" ~count:50
    QCheck.(list_of_size (Gen.int_range 0 40) small_int)
    (fun xs ->
      let r1 = Pool.map ~j:1 job xs in
      let r2 = Pool.map ~j:2 job xs in
      let r4 = Pool.map ~j:4 job xs in
      r1 = r2 && r2 = r4)

let test_order_preserved () =
  let xs = List.init 23 (fun i -> i) in
  Alcotest.(check (list int))
    "canonical order" xs
    (Pool.map ~j:4 (fun x -> x) xs)

let test_engine_jobs_deterministic () =
  (* Each job owns an engine and a PRNG; the pool must not perturb them. *)
  let sim seed =
    let engine = Ispn_sim.Engine.create () in
    let prng = Ispn_util.Prng.create ~seed in
    let sum = ref 0. in
    let rec tick () =
      sum := !sum +. Ispn_util.Prng.float prng;
      if Ispn_sim.Engine.now engine < 10. then
        ignore (Ispn_sim.Engine.schedule_after engine ~delay:0.1 tick)
    in
    ignore (Ispn_sim.Engine.schedule_after engine ~delay:0.1 tick);
    Ispn_sim.Engine.run engine ~until:20.;
    !sum
  in
  let seeds = [ 1L; 2L; 3L; 4L; 5L; 6L; 7L ] in
  let serial = List.map sim seeds in
  Alcotest.(check (list (float 0.)))
    "simulations unchanged under -j 3" serial
    (Pool.map ~j:3 sim seeds)

let test_crash_containment () =
  Printexc.record_backtrace true;
  let f x = if x = 3 then failwith "boom" else x * 10 in
  (match Pool.try_map ~j:2 f [ 1; 2; 3; 4; 5 ] with
  | [ Ok 10; Ok 20; Error e; Ok 40; Ok 50 ] when e.Pool.exn = Failure "boom" ->
      (* The error names the job that crashed and carries the raise's
         backtrace, so a fanned-out crash is diagnosable. *)
      Alcotest.(check int) "job index" 2 e.Pool.job;
      Alcotest.(check bool)
        "backtrace captured" true
        (String.length e.Pool.backtrace > 0)
  | _ -> Alcotest.fail "expected Ok/Ok/Error(boom)/Ok/Ok");
  (* map re-raises the first failure in canonical order, after the rest of
     the pool has completed. *)
  Alcotest.check_raises "map re-raises" (Failure "boom") (fun () ->
      ignore (Pool.map ~j:2 f [ 1; 2; 3; 4; 5 ]))

let test_first_error_in_job_order () =
  (* Job 5 may *finish* first under parallelism, but job 1's error must be
     the one re-raised. *)
  let f x = if x >= 1 then failwith (string_of_int x) else x in
  Alcotest.check_raises "deterministic raise" (Failure "1") (fun () ->
      ignore (Pool.map ~j:4 f [ 0; 1; 2; 3; 4; 5 ]))

let test_empty_and_degenerate () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~j:4 (fun x -> x) []);
  Alcotest.(check (list int))
    "more domains than jobs" [ 7 ]
    (Pool.map ~j:16 (fun x -> x) [ 7 ])

(* Slice 0 runs on the calling domain and slice 1 on a domain of its
   own: jobs 0 and 2 of a [j = 2] map run on the caller, 1 and 3 elsewhere,
   and a [j = 1] map never leaves the caller. *)
let test_slice0_on_caller () =
  let self = (Domain.self () :> int) in
  let on_domain j =
    Pool.map ~j (fun _ -> (Domain.self () :> int) = self) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check (list bool))
    "-j 2: even jobs on the caller" [ true; false; true; false ] (on_domain 2);
  Alcotest.(check (list bool))
    "-j 1: all on the caller" [ true; true; true; true ] (on_domain 1)

let suite =
  [
    Alcotest.test_case "slice 0 runs on the caller" `Quick test_slice0_on_caller;
    Alcotest.test_case "order preserved" `Quick test_order_preserved;
    Alcotest.test_case "engine jobs deterministic" `Quick
      test_engine_jobs_deterministic;
    Alcotest.test_case "crash containment" `Quick test_crash_containment;
    Alcotest.test_case "first error in job order" `Quick
      test_first_error_in_job_order;
    Alcotest.test_case "empty and degenerate" `Quick test_empty_and_degenerate;
    QCheck_alcotest.to_alcotest qcheck_pool_determinism;
  ]
