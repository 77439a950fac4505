open Ispn_util

let feed xs =
  let s = Stats.create () in
  List.iter (Stats.add s) xs;
  s

let close = Alcotest.check (Alcotest.float 1e-9)

let test_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  close "mean" 0. (Stats.mean s)

let test_known_values () =
  let s = feed [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "count" 8 (Stats.count s);
  close "mean" 5.0 (Stats.mean s);
  close "min" 2. (Stats.min s);
  close "max" 9. (Stats.max s)

let test_single_observation () =
  let s = feed [ 42. ] in
  close "mean" 42. (Stats.mean s);
  close "min" 42. (Stats.min s);
  close "max" 42. (Stats.max s)

let qcheck_min_max_bound_mean =
  QCheck.Test.make ~name:"min <= mean <= max" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = feed xs in
      Stats.min s <= Stats.mean s +. 1e-9
      && Stats.mean s <= Stats.max s +. 1e-9)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "known values" `Quick test_known_values;
    Alcotest.test_case "single observation" `Quick test_single_observation;
    QCheck_alcotest.to_alcotest qcheck_min_max_bound_mean;
  ]
