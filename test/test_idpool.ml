(* Idpool — the flow-slot free list under churn (DESIGN.md session
   lifecycle).  LIFO recycling and accounting that feeds the flow-state
   audit invariant. *)

open Ispn_util

let test_take_is_dense_from_base () =
  let p = Idpool.create ~capacity:4 () in
  let ids = List.init 3 (fun _ -> Idpool.take p) in
  Alcotest.(check (list int)) "first takes are 0.." [ 0; 1; 2 ] ids;
  Alcotest.(check int) "in_use" 3 (Idpool.in_use p);
  Alcotest.(check int) "hwm" 3 (Idpool.hwm p);
  Alcotest.(check bool) "taken" true (Idpool.is_taken p ~id:1);
  Alcotest.(check bool) "not taken" false (Idpool.is_taken p ~id:3)

let test_lifo_recycling () =
  let p = Idpool.create ~capacity:8 () in
  let a = Idpool.take p in
  let b = Idpool.take p in
  Idpool.release p ~id:a;
  Idpool.release p ~id:b;
  (* Most recently released comes back first: maximum reuse stress. *)
  Alcotest.(check int) "b first" b (Idpool.take p);
  Alcotest.(check int) "then a" a (Idpool.take p);
  Alcotest.(check int) "takes" 4 (Idpool.takes p);
  Alcotest.(check int) "releases" 2 (Idpool.releases p);
  Alcotest.(check int) "in_use = takes - releases" 2 (Idpool.in_use p);
  Alcotest.(check int) "hwm never saw more than 2" 2 (Idpool.hwm p)

let test_growth_when_exhausted () =
  let p = Idpool.create ~capacity:2 () in
  let ids = List.init 5 (fun _ -> Idpool.take p) in
  Alcotest.(check (list int)) "grows contiguously" [ 0; 1; 2; 3; 4 ] ids;
  Alcotest.(check bool) "capacity doubled past demand" true
    (Idpool.capacity p >= 5);
  Alcotest.(check int) "hwm" 5 (Idpool.hwm p);
  List.iter (fun id -> Idpool.release p ~id) ids;
  Alcotest.(check int) "all back" 0 (Idpool.in_use p);
  Alcotest.(check int) "no bad releases" 0 (Idpool.bad_releases p)

let test_bad_releases_counted_not_fatal () =
  let p = Idpool.create ~capacity:2 () in
  let id = Idpool.take p in
  Idpool.release p ~id;
  Idpool.release p ~id (* double free *);
  Idpool.release p ~id:(-1) (* below range *);
  Idpool.release p ~id:999 (* above range *);
  Alcotest.(check int) "three bad releases" 3 (Idpool.bad_releases p);
  Alcotest.(check int) "releases counts only the good one" 1
    (Idpool.releases p);
  Alcotest.(check int) "in_use undisturbed" 0 (Idpool.in_use p)

let test_create_validates () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Idpool.create: non-positive capacity") (fun () ->
      ignore (Idpool.create ~capacity:0 ()))

(* Property: under any interleaving of takes and (sometimes stale, sometimes
   bad) releases, the accounting identity takes = releases + in_use holds,
   ids are never handed out twice while live, and hwm tracks the peak. *)
let prop_accounting_identity =
  QCheck.Test.make ~count:300 ~name:"idpool accounting identity"
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let p = Idpool.create ~capacity:2 () in
      let live = Hashtbl.create 16 in
      let peak = ref 0 in
      List.iter
        (fun (is_take, k) ->
          if is_take then (
            let id = Idpool.take p in
            if Hashtbl.mem live id then
              QCheck.Test.fail_report "live id handed out twice";
            Hashtbl.replace live id ();
            peak := max !peak (Hashtbl.length live))
          else
            let ids = Hashtbl.fold (fun id () acc -> id :: acc) live [] in
            match List.sort compare ids with
            | [] -> Idpool.release p ~id:k (* maybe bad *)
            | sorted ->
                let id = List.nth sorted (k mod List.length sorted) in
                Idpool.release p ~id;
                Hashtbl.remove live id)
        ops;
      Idpool.takes p = Idpool.releases p + Idpool.in_use p
      && Idpool.in_use p = Hashtbl.length live
      && Idpool.hwm p = !peak)

(* The eager reference: every slot pre-pushed on the free stack at
   creation and at each doubling, lowest on top — the layout [Idpool]
   had before it counted never-taken slots instead. *)
module Eager = struct
  type t = {
    mutable taken : bool array;
    mutable free : int array;
    mutable top : int;
  }

  let create ~capacity =
    {
      taken = Array.make capacity false;
      free = Array.init capacity (fun i -> capacity - 1 - i);
      top = capacity;
    }

  let take t =
    if t.top = 0 then begin
      let old = Array.length t.taken in
      let n = 2 * old in
      t.taken <- Array.append t.taken (Array.make old false);
      t.free <- Array.init n (fun i -> if i < old then n - 1 - i else 0);
      t.top <- old
    end;
    t.top <- t.top - 1;
    let s = t.free.(t.top) in
    t.taken.(s) <- true;
    s

  let release t ~id =
    if id >= 0 && id < Array.length t.taken && t.taken.(id) then begin
      t.taken.(id) <- false;
      t.free.(t.top) <- id;
      t.top <- t.top + 1
    end
end

type pool_op = Take | Release of int

(* Property: the lazily filled pool hands out exactly the ids, in exactly
   the order, of the eagerly pre-filled one, under any script of takes
   and releases (some double or out of range). *)
let prop_matches_eager_model =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (5, return Take);
          (3, map (fun k -> Release k) (int_range (-2) 40));
        ])
  in
  QCheck.Test.make ~count:300 ~name:"idpool matches eager model"
    QCheck.(
      make
        Gen.(pair (int_range 1 4) (list_size (int_range 0 200) gen_op)))
    (fun (capacity, ops) ->
      let p = Idpool.create ~capacity () in
      let m = Eager.create ~capacity in
      List.for_all
        (fun op ->
          match op with
          | Take -> Idpool.take p = Eager.take m
          | Release id ->
              Idpool.release p ~id;
              Eager.release m ~id;
              true)
        ops
      && Idpool.capacity p = Array.length m.Eager.taken
      && List.for_all
           (fun id -> Idpool.is_taken p ~id = m.Eager.taken.(id))
           (List.init (Array.length m.Eager.taken) Fun.id))

let suite =
  [
    Alcotest.test_case "take is dense from base" `Quick
      test_take_is_dense_from_base;
    Alcotest.test_case "LIFO recycling" `Quick test_lifo_recycling;
    Alcotest.test_case "growth when exhausted" `Quick
      test_growth_when_exhausted;
    Alcotest.test_case "bad releases counted, not fatal" `Quick
      test_bad_releases_counted_not_fatal;
    Alcotest.test_case "create validates" `Quick test_create_validates;
    QCheck_alcotest.to_alcotest prop_accounting_identity;
    QCheck_alcotest.to_alcotest prop_matches_eager_model;
  ]
