(* The experiment registry: ctx validation, plus registry-wide contracts —
   every entry that honors -j is -j-independent, every entry that honors
   --shards is width-independent, and every entry that honors --check is
   audit-clean without perturbing its text. *)
module S = Csz.Section

let ok = function Ok c -> c | Error msg -> Alcotest.fail msg

let rejects name flag mk =
  Alcotest.test_case ("ctx rejects " ^ name) `Quick (fun () ->
      match mk () with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error msg ->
          let names_flag =
            String.length msg >= String.length flag
            && String.sub msg 0 (String.length flag) = flag
          in
          if not names_flag then Alcotest.failf "%S does not name %s" msg flag)

let test_ctx_defaults () =
  let c = ok (S.ctx ()) in
  Alcotest.(check (float 0.)) "duration" 600. c.S.duration;
  Alcotest.(check (float 0.)) "avg rate" 85. c.S.avg_rate;
  Alcotest.(check int) "shards" 1 c.S.shards;
  Alcotest.(check bool) "switches off" false
    (c.S.check || c.S.metrics || c.S.series || c.S.verbose);
  let c = ok (S.ctx ~duration:0.5 ~jobs:3 ~trace_cap:1 ~check:true ()) in
  Alcotest.(check (float 0.)) "given duration" 0.5 c.S.duration;
  Alcotest.(check int) "given jobs" 3 c.S.jobs;
  Alcotest.(check (option int)) "given cap" (Some 1) c.S.trace_cap;
  Alcotest.(check bool) "given check" true c.S.check

let ctx_cases =
  [
    Alcotest.test_case "ctx defaults and overrides" `Quick test_ctx_defaults;
    rejects "zero duration" "--duration" (fun () -> S.ctx ~duration:0. ());
    rejects "negative duration" "--duration" (fun () ->
        S.ctx ~duration:(-5.) ());
    rejects "nan duration" "--duration" (fun () -> S.ctx ~duration:nan ());
    rejects "infinite duration" "--duration" (fun () ->
        S.ctx ~duration:infinity ());
    rejects "zero avg-rate" "--avg-rate" (fun () -> S.ctx ~avg_rate:0. ());
    rejects "nan avg-rate" "--avg-rate" (fun () -> S.ctx ~avg_rate:nan ());
    rejects "zero jobs" "-j" (fun () -> S.ctx ~jobs:0 ());
    rejects "zero shards" "--shards" (fun () -> S.ctx ~shards:0 ());
    rejects "zero trace-cap" "--trace-cap" (fun () -> S.ctx ~trace_cap:0 ());
  ]

(* Short runs keep the whole registry sweep to a few seconds. *)
let duration = 5.
let honors flag (s : S.t) = List.mem flag s.S.flags

(* Everything a front-end prints or writes for one run. *)
let everything (s : S.t) (o : S.output) =
  S.render s o
  ^ Ispn_obs.Metrics.render_json (S.snapshots o.S.exports)
  ^ Ispn_obs.Series.render_json (S.timelines o.S.exports)

let jobs_case (s : S.t) =
  Alcotest.test_case (s.S.name ^ ": -j 1 = -j 2") `Slow (fun () ->
      let run jobs =
        s.S.run
          (ok
             (S.ctx ~duration ~jobs ~check:(honors S.Check s)
                ~metrics:(honors S.Metrics s) ~series:(honors S.Series s) ()))
      in
      let o1 = run 1 and o2 = run 2 in
      Alcotest.(check string) "text and exports" (everything s o1)
        (everything s o2))

(* Audit event counts follow the shard partition, so --check stays off
   here; everything else must not see the width. *)
let shards_case (s : S.t) =
  Alcotest.test_case (s.S.name ^ ": --shards 1 = --shards 2") `Slow
    (fun () ->
      let run shards =
        s.S.run
          (ok
             (S.ctx ~duration ~shards ~metrics:(honors S.Metrics s)
                ~series:(honors S.Series s) ()))
      in
      let o1 = run 1 and o2 = run 2 in
      Alcotest.(check string) "text and exports" (everything s o1)
        (everything s o2))

let check_case (s : S.t) =
  Alcotest.test_case (s.S.name ^ ": --check clean, same text") `Slow
    (fun () ->
      let run check = s.S.run (ok (S.ctx ~duration ~jobs:1 ~check ())) in
      let plain = run false and audited = run true in
      Alcotest.(check string) "text" plain.S.text audited.S.text;
      Alcotest.(check bool) "audited" true
        (List.exists
           (fun (_, x) -> x.Csz.Instr.audit <> None)
           audited.S.exports);
      Alcotest.(check int) "violations" 0 (S.violations audited.S.exports))

let suite =
  ctx_cases
  @ List.map jobs_case (List.filter (honors S.Jobs) S.all)
  @ List.map shards_case (List.filter (honors S.Shards) S.all)
  @ List.map check_case (List.filter (honors S.Check) S.all)
