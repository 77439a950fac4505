(* Routing on Network's graph constructor: fewest hops, tie-breaks,
   unreachable pairs and the link-list checks. *)

open Ispn_sim

let fifo () = Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:100) ()

let net ?(engine = Engine.create ()) ~n links =
  Network.create ~engine ~n_switches:n ~links ~rate_bps:1e6
    ~qdisc_of:(fun _ -> fifo ())
    ()

(* A diamond:  0 -> 1 -> 3  and  0 -> 2 -> 3, plus a long way 1 -> 2.
   Link ids follow the list: 0->1 is 0, 1->3 is 1, 0->2 is 2, 2->3 is 3,
   1->2 is 4. *)
let diamond_links = [ (0, 1); (1, 3); (0, 2); (2, 3); (1, 2) ]
let diamond ?engine () = net ?engine ~n:4 diamond_links

let test_shortest_path_picks_fewest_hops () =
  let t = diamond () in
  Alcotest.(check (option (list int))) "0->3 via lowest-id tie-break"
    (Some [ 0; 1 ])
    (Network.path t ~ingress:0 ~egress:3);
  Alcotest.(check (option (list int))) "1->2 direct" (Some [ 4 ])
    (Network.path t ~ingress:1 ~egress:2);
  Alcotest.(check (option (list int))) "self" (Some [])
    (Network.path t ~ingress:0 ~egress:0)

let test_unreachable () =
  let t = diamond () in
  (* Links are directed: nothing reaches 0. *)
  Alcotest.(check (option (list int))) "3->0 unreachable" None
    (Network.path t ~ingress:3 ~egress:0);
  Alcotest.(check (option (list int))) "out of range" None
    (Network.path t ~ingress:0 ~egress:4);
  (try
     Network.install_flow t ~flow:1 ~ingress:3 ~egress:0 ~sink:(fun _ -> ());
     Alcotest.fail "expected Failure"
   with Failure _ -> ());
  try
    Network.install_flow t ~flow:1 ~ingress:(-1) ~egress:0 ~sink:(fun _ -> ());
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_end_to_end_delivery () =
  let engine = Engine.create () in
  let t = diamond ~engine () in
  let got = ref [] in
  Network.install_flow t ~flow:7 ~ingress:0 ~egress:3 ~sink:(fun p ->
      got := (Engine.now engine, Packet.seq p) :: !got);
  for i = 0 to 2 do
    Network.inject t ~at_switch:0 (Packet.make ~flow:7 ~seq:i ~created:0. ())
  done;
  Engine.run engine ~until:1.;
  let got = List.rev !got in
  Alcotest.(check int) "all delivered" 3 (List.length got);
  Alcotest.(check (list int)) "along the shortest path" [ 3; 3; 0; 0; 0 ]
    (List.init 5 (fun i -> Link.sent (Network.link t i)));
  (* Two hops: first packet needs 2 transmission times. *)
  match got with
  | (t0, seq0) :: _ ->
      Alcotest.(check int) "in order" 0 seq0;
      Alcotest.(check (float 1e-9)) "2 hops" 0.002 t0
  | [] -> Alcotest.fail "no delivery"

let test_duplex_and_reverse_traffic () =
  let engine = Engine.create () in
  let t = net ~engine ~n:2 [ (0, 1); (1, 0) ] in
  let fwd = ref 0 and rev = ref 0 in
  Network.install_flow t ~flow:1 ~ingress:0 ~egress:1 ~sink:(fun _ -> incr fwd);
  Network.install_flow t ~flow:2 ~ingress:1 ~egress:0 ~sink:(fun _ -> incr rev);
  Network.inject t ~at_switch:0 (Packet.make ~flow:1 ~seq:0 ~created:0. ());
  Network.inject t ~at_switch:1 (Packet.make ~flow:2 ~seq:0 ~created:0. ());
  Engine.run engine ~until:1.;
  Alcotest.(check int) "forward" 1 !fwd;
  Alcotest.(check int) "reverse" 1 !rev

let test_duplicate_link_rejected () =
  try
    ignore (net ~n:4 (diamond_links @ [ (0, 1) ]));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_self_loop_rejected () =
  (try
     ignore (net ~n:4 (diamond_links @ [ (1, 1) ]));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (net ~n:4 (diamond_links @ [ (1, 4) ]));
    Alcotest.fail "expected Invalid_argument for an out-of-range endpoint"
  with Invalid_argument _ -> ()

let test_iter_links_and_drops () =
  let t = diamond () in
  Alcotest.(check int) "five links" 5 (Network.n_links t);
  for i = 0 to Network.n_links t - 1 do
    let l = Network.link t i in
    Alcotest.(check int) "id is the list index" i (Link.id l);
    Alcotest.(check string) "named by id" (Printf.sprintf "L-%d" (i + 1))
      (Link.name l)
  done;
  Alcotest.(check int) "no drops yet" 0 (Network.total_dropped t)

(* Fewest-hop distances by Floyd–Warshall over the same directed edges. *)
let brute_force_hops ~n edges =
  let inf = max_int / 2 in
  let d = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0 else inf)) in
  List.iter (fun (a, b) -> d.(a).(b) <- 1) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  fun src dst -> if d.(src).(dst) >= inf then None else Some d.(src).(dst)

let qcheck_random_graphs_route_or_fail_cleanly =
  QCheck.Test.make
    ~name:"random graphs: BFS path is valid and fewest-hop (Floyd-Warshall)"
    ~count:100
    QCheck.(
      pair (int_range 2 8)
        (list_of_size (Gen.int_range 0 20) (pair (int_bound 7) (int_bound 7))))
    (fun (n, edges) ->
      let edges =
        List.sort_uniq compare
          (List.filter_map
             (fun (a, b) ->
               let a = a mod n and b = b mod n in
               if a <> b then Some (a, b) else None)
             edges)
      in
      let t = net ~n edges in
      let ends = Array.of_list edges in
      let hops = brute_force_hops ~n edges in
      (* Every reported path must chain from src to dst over existing links,
         be exactly as long as the brute-force distance, and exist iff a
         route does. *)
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          match (Network.path t ~ingress:src ~egress:dst, hops src dst) with
          | None, None -> ()
          | None, Some _ | Some _, None -> ok := false
          | Some path, Some d ->
              if List.length path <> d then ok := false;
              let at =
                List.fold_left
                  (fun at l ->
                    let a, b = ends.(l) in
                    if a <> at then ok := false;
                    b)
                  src path
              in
              if at <> dst then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "shortest path fewest hops" `Quick
      test_shortest_path_picks_fewest_hops;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "end-to-end delivery" `Quick test_end_to_end_delivery;
    Alcotest.test_case "duplex and reverse traffic" `Quick
      test_duplex_and_reverse_traffic;
    Alcotest.test_case "duplicate link rejected" `Quick
      test_duplicate_link_rejected;
    Alcotest.test_case "self loop rejected" `Quick test_self_loop_rejected;
    Alcotest.test_case "iter links and drops" `Quick test_iter_links_and_drops;
    QCheck_alcotest.to_alcotest qcheck_random_graphs_route_or_fail_cleanly;
  ]
