(* Ewma, Fcmp, Fvec, Quantile, Units and Table in one suite: small modules,
   small tests. *)
open Ispn_util

let close = Alcotest.check (Alcotest.float 1e-9)

(* --- Ewma --- *)

let test_ewma_first_observation_replaces_init () =
  let e = Ewma.create ~gain:0.5 () in
  close "before" 0. (Ewma.value e);
  Ewma.update e 10.;
  close "first obs wins" 10. (Ewma.value e)

let test_ewma_gain_one_tracks_exactly () =
  let e = Ewma.create ~gain:1.0 () in
  List.iter (Ewma.update e) [ 1.; 5.; 3. ];
  close "gain 1" 3. (Ewma.value e)

let test_ewma_convergence () =
  let e = Ewma.create ~gain:0.25 () in
  Ewma.update e 0.;
  for _ = 1 to 200 do
    Ewma.update e 8.
  done;
  if Float.abs (Ewma.value e -. 8.) > 1e-6 then
    Alcotest.failf "did not converge: %g" (Ewma.value e)

(* --- Fcmp --- *)

(* Floats with the special values over-represented: NaNs with two
   payloads, both zeros, both infinities. *)
let special_float =
  QCheck.(
    make ~print:(fun x -> Printf.sprintf "%h" x)
      Gen.(
        oneof
          [
            oneofl
              [ nan; -.nan; Int64.float_of_bits 0x7ff0_0000_0000_0001L; 0.;
                -0.; infinity; neg_infinity; 1.; -1. ];
            float;
          ]))

let qcheck_fcmp_matches_stdlib =
  QCheck.Test.make ~name:"fmin/fmax return Stdlib.min/max's bits" ~count:1000
    (QCheck.pair special_float special_float) (fun (a, b) ->
      let same x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      in
      same (Fcmp.fmin a b) (Stdlib.min a b)
      && same (Fcmp.fmax a b) (Stdlib.max a b))

(* --- Fvec --- *)

let test_fvec_push_get_growth () =
  let v = Fvec.create ~capacity:2 () in
  for i = 0 to 99 do
    Fvec.push v (float_of_int i)
  done;
  Alcotest.(check int) "length" 100 (Fvec.length v);
  close "get 0" 0. (Fvec.get v 0);
  close "get 99" 99. (Fvec.get v 99);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Fvec.get")
    (fun () -> ignore (Fvec.get v 100))

let test_fvec_sum_max_iter () =
  let v = Fvec.create () in
  close "empty max is init" 5. (Fvec.max ~init:5. v);
  List.iter (Fvec.push v) [ 1.; 2.; 3. ];
  close "sum" 6. (Fvec.sum v);
  close "max" 3. (Fvec.max ~init:0. v);
  close "max below init" 10. (Fvec.max ~init:10. v);
  let count = ref 0 in
  Fvec.iter (fun _ -> incr count) v;
  Alcotest.(check int) "iter count" 3 !count

let qcheck_fvec_model =
  QCheck.Test.make ~name:"fvec to_array equals pushed list" ~count:300
    QCheck.(list (float_range (-10.) 10.))
    (fun xs ->
      let v = Fvec.create () in
      List.iter (Fvec.push v) xs;
      Array.to_list (Fvec.to_array v) = xs)

let bits = Int64.bits_of_float

(* The folds [Fvec.sum] and [Fvec.max] replace, bit for bit. *)
let qcheck_fvec_sum_max =
  QCheck.Test.make ~name:"fvec sum and max match the folds" ~count:300
    QCheck.(pair (list (float_range (-10.) 10.)) (float_range (-10.) 10.))
    (fun (xs, init) ->
      let v = Fvec.create () in
      List.iter (Fvec.push v) xs;
      bits (Fvec.sum v) = bits (List.fold_left ( +. ) 0. xs)
      && bits (Fvec.max ~init v) = bits (List.fold_left Stdlib.max init xs))

(* --- Quantile --- *)

let test_quantile_known () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  close "median" 5. (Quantile.of_sorted a 0.5);
  close "p90" 9. (Quantile.of_sorted a 0.9);
  close "p100" 10. (Quantile.of_sorted a 1.0);
  close "p0" 1. (Quantile.of_sorted a 0.)

let test_quantile_singleton () =
  close "single" 7. (Quantile.of_sorted [| 7. |] 0.999)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.of_sorted: empty")
    (fun () -> ignore (Quantile.of_sorted [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.of_sorted: q out of range") (fun () ->
      ignore (Quantile.of_sorted [| 1. |] 1.5))

let qcheck_quantile_membership =
  QCheck.Test.make ~name:"quantile is an element of the sample" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 100) (float_range 0. 100.))
        (float_range 0. 1.))
    (fun (xs, q) ->
      let a = Array.of_list (List.sort compare xs) in
      List.mem (Quantile.of_sorted a q) xs)

(* Selection against sorting: the shapes that break naive quickselect
   (ties, runs, organ pipes), [-0.] beside [0.], and the quantiles the
   tables use plus both ends.  [Quantile.percentile] must leave its
   vector untouched. *)
let qcheck_quantile_select_matches_sort =
  let shaped =
    QCheck.Gen.(
      let* n = int_range 1 5_000 in
      let* shape = int_bound 5 in
      let+ a =
        match shape with
        | 0 -> map (Array.make n) (float_range 0. 10.)
        | 1 ->
            array_size (return n)
              (frequency
                 [ (8, oneofl [ 0.; -0. ]); (1, float_range 0. 100.) ])
        | 2 -> return (Array.init n (fun i -> float_of_int (i / 3)))
        | 3 -> return (Array.init n (fun i -> float_of_int (n - i)))
        | 4 -> return (Array.init n (fun i -> float_of_int (min i (n - 1 - i))))
        | _ -> array_size (return n) (map float_of_int (int_bound 50))
      in
      (shape, a))
  in
  let print (shape, a) =
    Printf.sprintf "shape %d, n = %d" shape (Array.length a)
  in
  QCheck.Test.make ~name:"quantile selection equals sorting" ~count:200
    (QCheck.make ~print shaped)
    (fun (_, a) ->
      let n = Array.length a in
      let sorted = Array.copy a in
      Array.sort compare sorted;
      let v = Fvec.create () in
      Array.iter (Fvec.push v) a;
      List.for_all
        (fun q ->
          let p = q *. 100. in
          compare (Quantile.select (Array.copy a) q)
            (Quantile.of_sorted sorted q)
          = 0
          && compare (Quantile.percentile v p)
               (Quantile.of_sorted sorted (p /. 100.))
             = 0
          && Array.for_all2
               (fun x y -> bits x = bits y)
               a (Fvec.to_array v))
        [ 0.; 1. /. float_of_int n; 0.5; 0.999; 1. ])

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 100) (float_range 0. 100.))
    (fun xs ->
      let a = Array.of_list (List.sort compare xs) in
      let qs = [ 0.; 0.25; 0.5; 0.75; 0.9; 0.999; 1.0 ] in
      let vals = List.map (Quantile.of_sorted a) qs in
      List.sort compare vals = vals)

(* --- Units --- *)

let test_units_transmission_time () =
  close "1000 bits at 1Mbps = 1ms" 0.001
    (Units.transmission_time ~link_rate_bps:1e6 ~packet_bits:1000)

(* --- Table --- *)

let test_table_layout () =
  let out =
    Table.render ~header:[ "name"; "x" ]
      ~rows:[ [ "a"; "1.00" ]; [ "bb"; "10.00" ] ]
      ()
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "line count" 4 (List.length lines);
  (* All lines equal width. *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "width" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output"

let test_table_pads_short_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "x" ] ] () in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_fmt_float () =
  Alcotest.(check string) "two decimals" "3.14" (Table.fmt_float 3.14159);
  Alcotest.(check string) "custom" "3.1416"
    (Table.fmt_float ~decimals:4 3.14159)

(* Inttbl against Hashtbl: random replace/remove/find over a small key
   range (long probe runs, many backward shifts across the wrap-around),
   plus a few far-apart keys. *)
let qcheck_inttbl_model =
  let module Inttbl = Ispn_util.Inttbl in
  let key =
    QCheck.Gen.(
      frequency
        [
          (8, int_range (-20) 60);
          (1, oneofl [ max_int; -1_000_000; 900_000 ]);
        ])
  in
  QCheck.Test.make ~name:"inttbl matches Hashtbl" ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 400) (pair (int_bound 2) key)))
    (fun ops ->
      let t = Inttbl.create ~dummy:(-1) () in
      let h = Hashtbl.create 16 in
      List.iteri
        (fun i (op, k) ->
          match op with
          | 0 ->
              Inttbl.replace t k i;
              Hashtbl.replace h k i
          | 1 ->
              Inttbl.remove t k;
              Hashtbl.remove h k
          | _ -> ())
        ops;
      let agree k =
        Inttbl.mem t k = Hashtbl.mem h k
        && (match Inttbl.find t k with
           | v -> Hashtbl.find_opt h k = Some v
           | exception Not_found -> not (Hashtbl.mem h k))
      in
      List.for_all (fun (_, k) -> agree k) ops
      && List.for_all agree (List.init 100 (fun k -> k - 30))
      && Inttbl.length t = Hashtbl.length h
      && List.sort compare (Inttbl.fold (fun k v acc -> (k, v) :: acc) t [])
         = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []))

let test_inttbl_min_int_rejected () =
  let t = Ispn_util.Inttbl.create ~dummy:0 () in
  Alcotest.check_raises "min_int"
    (Invalid_argument "Inttbl.replace: min_int is not a key") (fun () ->
      Ispn_util.Inttbl.replace t min_int 1);
  Alcotest.(check bool) "not a member" false (Ispn_util.Inttbl.mem t min_int)

let suite =
  [
    Alcotest.test_case "ewma first observation" `Quick
      test_ewma_first_observation_replaces_init;
    Alcotest.test_case "ewma gain one" `Quick test_ewma_gain_one_tracks_exactly;
    Alcotest.test_case "ewma convergence" `Quick test_ewma_convergence;
    QCheck_alcotest.to_alcotest qcheck_fcmp_matches_stdlib;
    Alcotest.test_case "fvec push/get/growth" `Quick test_fvec_push_get_growth;
    Alcotest.test_case "fvec sum/max/iter" `Quick test_fvec_sum_max_iter;
    QCheck_alcotest.to_alcotest qcheck_fvec_model;
    QCheck_alcotest.to_alcotest qcheck_fvec_sum_max;
    QCheck_alcotest.to_alcotest qcheck_inttbl_model;
    Alcotest.test_case "inttbl rejects min_int" `Quick
      test_inttbl_min_int_rejected;
    Alcotest.test_case "quantile known" `Quick test_quantile_known;
    Alcotest.test_case "quantile singleton" `Quick test_quantile_singleton;
    Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
    QCheck_alcotest.to_alcotest qcheck_quantile_membership;
    QCheck_alcotest.to_alcotest qcheck_quantile_monotone;
    QCheck_alcotest.to_alcotest qcheck_quantile_select_matches_sort;
    Alcotest.test_case "units transmission time" `Quick
      test_units_transmission_time;
    Alcotest.test_case "table layout" `Quick test_table_layout;
    Alcotest.test_case "table pads short rows" `Quick
      test_table_pads_short_rows;
    Alcotest.test_case "fmt_float" `Quick test_fmt_float;
  ]
