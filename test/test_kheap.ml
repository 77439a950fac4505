open Ispn_util

(* The keyed heap behind every ranked scheduler: float keys, FIFO within
   equal keys.  The model tests pit it against a sorted association list;
   small integer keys make ties frequent. *)

let kh () = Kheap.create ()

let test_empty () =
  let h = kh () in
  Alcotest.(check bool) "is_empty" true (Kheap.is_empty h);
  Alcotest.(check int) "length" 0 (Kheap.length h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Kheap.pop_exn: empty")
    (fun () -> ignore (Kheap.pop_exn h));
  Alcotest.check_raises "min_key_exn"
    (Invalid_argument "Kheap.min_key_exn: empty") (fun () ->
      ignore (Kheap.min_key_exn h))

let test_ordering () =
  let h = kh () in
  List.iteri (fun i k -> Kheap.push h ~key:k i) [ 5.; 1.; 4.; 9.; 2. ];
  let keys = List.init 5 (fun _ ->
      let k = Kheap.min_key_exn h in
      ignore (Kheap.pop_exn h);
      k)
  in
  Alcotest.(check (list (float 0.))) "sorted drain" [ 1.; 2.; 4.; 5.; 9. ] keys

let test_fifo_on_ties () =
  let h = kh () in
  List.iter (fun v -> Kheap.push h ~key:7. v) [ 0; 1; 2; 3 ];
  Kheap.push h ~key:3. 99;
  Alcotest.(check int) "smaller key first" 99 (Kheap.pop_exn h);
  let order = List.init 4 (fun _ -> Kheap.pop_exn h) in
  Alcotest.(check (list int)) "fifo within key" [ 0; 1; 2; 3 ] order

let test_pinned_reinsert_keeps_rank () =
  (* A scheduler un-committing a packet re-inserts it with its original
     sequence number; it must come back out ahead of later arrivals with
     the same key. *)
  let h = kh () in
  List.iter (fun v -> Kheap.push h ~key:1. v) [ 10; 11 ];
  let seq = Kheap.min_seq_exn h in
  let first = Kheap.pop_exn h in
  Alcotest.(check int) "committed head" 10 first;
  Kheap.push h ~key:1. 12;
  (* new arrival, same key *)
  Kheap.push_pinned h ~key:1. ~seq first;
  (* demote the commitment *)
  let order = List.init 3 (fun _ -> Kheap.pop_exn h) in
  Alcotest.(check (list int)) "original rank restored" [ 10; 11; 12 ] order

let test_peek_accessors_agree () =
  let h = kh () in
  Kheap.push h ~key:2. 5;
  Kheap.push h ~key:1. 6;
  Alcotest.(check (float 0.)) "min_key" 1. (Kheap.min_key_exn h);
  Alcotest.(check int) "min_seq is second push" 1 (Kheap.min_seq_exn h);
  Alcotest.(check int) "peek removes nothing" 2 (Kheap.length h)

let test_capacity_preallocates () =
  (* Honored ~capacity: pushes within it must not reallocate the arrays.
     Each cross-module [push] call boxes its float [~key] argument (2
     words); beyond that, any minor words here would be growth — doubling
     to 1024 slots would cost ~3000 words at once, well over the budget. *)
  let h = Kheap.create ~capacity:512 () in
  Kheap.push h ~key:0. 0;
  let before = Gc.minor_words () in
  let pushes = 511 in
  for i = 1 to pushes do
    Kheap.push h ~key:(float_of_int (i land 15)) i
  done;
  let words = Gc.minor_words () -. before in
  let budget = (2. *. float_of_int pushes) +. 64. in
  if words > budget then
    Alcotest.failf
      "%.0f minor words growing within capacity (boxed key args alone are \
       %.0f)"
      words
      (2. *. float_of_int pushes)

(* Model: a sorted association list of (key, seq, payload), kept stable by
   inserting strictly after every entry with an equal key. *)
let model_insert model key seq v =
  let rec go = function
    | [] -> [ (key, seq, v) ]
    | ((k, s, _) as hd) :: tl ->
        if k < key || (k = key && s < seq) then hd :: go tl
        else (key, seq, v) :: hd :: tl
  in
  go model

let qcheck_model =
  (* true → push with the given small key (ties frequent); false → pop. *)
  QCheck.Test.make ~name:"kheap agrees with sorted-list model" ~count:500
    QCheck.(list (pair bool (int_bound 7)))
    (fun ops ->
      let h = kh () in
      let model = ref [] in
      let next = ref 0 in
      List.for_all
        (fun (is_push, k) ->
          if is_push then begin
            let v = !next in
            incr next;
            Kheap.push h ~key:(float_of_int k) v;
            model := model_insert !model (float_of_int k) v v;
            true
          end
          else
            match !model with
            | [] -> Kheap.is_empty h
            | (k, _, v) :: tl ->
                model := tl;
                k = Kheap.min_key_exn h && v = Kheap.pop_exn h)
        ops
      && Kheap.length h = List.length !model)

let qcheck_drain_sorted_stable =
  QCheck.Test.make ~name:"kheap drains sorted, FIFO within keys" ~count:300
    QCheck.(list (int_bound 7))
    (fun keys ->
      let h = kh () in
      List.iteri (fun i k -> Kheap.push h ~key:(float_of_int k) i) keys;
      let expected =
        List.mapi (fun i k -> (k, i)) keys
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      let drained =
        List.init (List.length keys) (fun _ -> Kheap.pop_exn h)
      in
      drained = expected)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "fifo on ties" `Quick test_fifo_on_ties;
    Alcotest.test_case "pinned reinsert keeps rank" `Quick
      test_pinned_reinsert_keeps_rank;
    Alcotest.test_case "peek accessors agree" `Quick test_peek_accessors_agree;
    Alcotest.test_case "capacity preallocates" `Quick
      test_capacity_preallocates;
    QCheck_alcotest.to_alcotest qcheck_model;
    QCheck_alcotest.to_alcotest qcheck_drain_sorted_stable;
  ]
