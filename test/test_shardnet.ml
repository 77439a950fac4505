open Ispn_sim

(* The sharded engine's contract (Shardnet doc): for workloads without
   exact-float cross-path arrival ties, the per-flow and per-link results
   are identical at every shard count, including 1.  The qcheck property
   drives one randomly drawn chain topology and traffic mix through a
   1-shard and a 4-shard run built from the same description and demands
   equal delivery histories (order-sensitive digests included), equal
   drop accounting, and a fully drained exchange.  The budget test pins
   the marshal/re-make handoff's per-packet allocation. *)

let spec_of ~n ~nflows ~seed ~shards =
  let prng = Ispn_util.Prng.create ~seed:(Int64.of_int (0x5eed + seed)) in
  (* Distinct propagation delays (random floats never collide) keep the
     workload inside the no-exact-ties contract; 2-4 ms floors the
     lookahead so the window count stays test-sized. *)
  let links =
    Array.init
      (2 * (n - 1))
      (fun li ->
        let i = li / 2 in
        let src, dst = if li land 1 = 0 then (i, i + 1) else (i + 1, i) in
        let prop = 2e-3 +. (2e-3 *. Ispn_util.Prng.float prng) in
        let capacity = 4 + Ispn_util.Prng.int prng ~bound:60 in
        {
          Shardnet.l_src = src;
          l_dst = dst;
          l_rate_bps = 1e6;
          l_prop_delay = prop;
          l_qdisc =
            (fun () ->
              Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity) ());
        })
  in
  let flows =
    Array.init nflows (fun f ->
        let src = Ispn_util.Prng.int prng ~bound:n in
        let d = Ispn_util.Prng.int prng ~bound:(n - 1) in
        let dst = if d >= src then d + 1 else d in
        let fseed = Ispn_util.Prng.int64 prng in
        {
          Shardnet.f_src = src;
          f_dst = dst;
          f_driver =
            (fun engine emit ->
              let fp = Ispn_util.Prng.create ~seed:fseed in
              let s =
                Ispn_traffic.Onoff.create ~engine ~prng:fp ~flow:f
                  ~avg_rate_pps:150. ~emit ()
              in
              s.Ispn_traffic.Source.start ());
        })
  in
  {
    Shardnet.n_switches = n;
    n_shards = shards;
    shard_of = Array.init n (fun s -> s * shards / n);
    links;
    flows;
  }

let case_arb =
  QCheck.make
    ~print:(fun (n, nflows, seed) ->
      Printf.sprintf "%d switches, %d flows, seed %d" n nflows seed)
    QCheck.Gen.(triple (int_range 4 10) (int_range 1 6) (int_range 0 9999))

let prop_shard_invariant =
  QCheck.Test.make ~count:30
    ~name:"1-shard and 4-shard runs agree packet for packet" case_arb
    (fun (n, nflows, seed) ->
      let run shards =
        Shardnet.run ~until:1.5 (spec_of ~n ~nflows ~seed ~shards)
      in
      let a = run 1 and b = run 4 in
      if a.Shardnet.r_flows <> b.Shardnet.r_flows then
        QCheck.Test.fail_report "per-flow stats diverge across widths";
      if a.Shardnet.r_links <> b.Shardnet.r_links then
        QCheck.Test.fail_report "per-link stats diverge across widths";
      if b.Shardnet.r_pushed <> b.Shardnet.r_drained then
        QCheck.Test.fail_reportf "exchange not drained: pushed %d drained %d"
          b.Shardnet.r_pushed b.Shardnet.r_drained;
      if a.Shardnet.r_cut_links <> 0 then
        QCheck.Test.fail_report "1-shard run must have no cut links";
      a.Shardnet.r_fired = b.Shardnet.r_fired)

(* A fixed bottlenecked case — tiny buffers force drops — as a fast
   always-on check that drop accounting survives the exchange. *)
let test_drops_agree () =
  let spec shards =
    let links =
      Array.init 6 (fun li ->
          let i = li / 2 in
          let src, dst = if li land 1 = 0 then (i, i + 1) else (i + 1, i) in
          {
            Shardnet.l_src = src;
            l_dst = dst;
            l_rate_bps = 1e6;
            l_prop_delay = 1e-3 *. (1. +. (0.1 *. float_of_int li));
            l_qdisc =
              (fun () -> Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:4) ());
          })
    in
    let flow f src dst =
      {
        Shardnet.f_src = src;
        f_dst = dst;
        f_driver =
          (fun engine emit ->
            let s =
              Ispn_traffic.Cbr.create ~engine ~flow:f ~rate_pps:700. ~emit ()
            in
            s.Ispn_traffic.Source.start ());
      }
    in
    {
      Shardnet.n_switches = 4;
      n_shards = shards;
      shard_of = (if shards = 1 then [| 0; 0; 0; 0 |] else [| 0; 0; 1; 1 |]);
      links;
      flows = [| flow 0 0 3; flow 1 0 3; flow 2 3 0 |];
    }
  in
  let a = Shardnet.run ~until:2.0 (spec 1) in
  let b = Shardnet.run ~until:2.0 (spec 2) in
  let dropped r =
    Array.fold_left
      (fun acc (k : Shardnet.link_stat) -> acc + k.Shardnet.k_dropped)
      0 r.Shardnet.r_links
  in
  Alcotest.(check bool) "drops happened" true (dropped a > 0);
  Alcotest.(check int) "drops agree" (dropped a) (dropped b);
  Alcotest.(check bool) "flows agree" true
    (a.Shardnet.r_flows = b.Shardnet.r_flows);
  Alcotest.(check int) "exchange drained" b.Shardnet.r_pushed
    b.Shardnet.r_drained

(* The cross-shard handoff's per-packet price, in minor words: the
   marshal side (push) must allocate nothing — it reads arena fields into
   the buffer's plain arrays and frees the handle — and the re-make side
   is allowed only [Packet.make]'s call-boundary boxing (the labelled
   float argument plus optional-argument wrapping on a non-flambda
   compiler).  12 words is well below one boxed record and far from the
   per-packet record regression this test exists to catch. *)
let test_exchange_budget () =
  let b = Shardnet.For_tests.buf () in
  let pa = Packet.arena () in
  (* Warm the buffer and arena past growth. *)
  for i = 0 to 63 do
    let p = Packet.make ~flow:1 ~seq:i ~created:0.5 () in
    Shardnet.For_tests.push b pa p ~arrival:1.0
  done;
  Shardnet.For_tests.reset b;
  let n = 20_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    let p = Packet.make ~flow:1 ~seq:i ~created:0.5 () in
    Shardnet.For_tests.push b pa p ~arrival:1.0;
    let q = Shardnet.For_tests.remake b pa 0 in
    Shardnet.For_tests.reset b;
    Packet.free q
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int n in
  (* Subtract nothing: the make/free cycle itself is pinned to zero by
     test_budget.ml, so the whole figure belongs to the exchange. *)
  if per > 12. then
    Alcotest.failf
      "cross-shard exchange: %.1f minor words per packet (expected <= 12 — \
       push must stay allocation-free, remake only Packet.make's boundary \
       boxing)"
      per

(* A one-shard run is wholly the caller's: its hooks run on the calling
   domain, so nothing was spawned for it. *)
let test_one_shard_on_caller () =
  let seen = ref [] in
  let r =
    Shardnet.run ~until:0.5
      ~on_shard:(fun ~shard:_ _ -> seen := Domain.self () :: !seen)
      (spec_of ~n:4 ~nflows:3 ~seed:1 ~shards:1)
  in
  Alcotest.(check (list int))
    "on_shard ran once, on the caller"
    [ (Domain.self () :> int) ]
    (List.map (fun d -> (d : Domain.id :> int)) !seen);
  Alcotest.(check int) "one window" 1 r.Shardnet.r_windows

(* A run that ends with packets in flight frees them once it is done,
   so one-shard runs repeated on the calling domain, whose arena outlives
   them, leave its live count where it was. *)
let test_leftovers_freed () =
  let in_use () = (Packet.pool_stats ()).Packet.p_in_use in
  let base = in_use () in
  let at_finish = ref [] in
  for seed = 1 to 3 do
    ignore
      (Shardnet.run ~until:0.5
         ~on_finish:(fun ~shard:_ -> at_finish := in_use () :: !at_finish)
         (spec_of ~n:4 ~nflows:6 ~seed ~shards:1));
    Alcotest.(check int)
      (Printf.sprintf "live packets after run %d" seed)
      base (in_use ())
  done;
  Alcotest.(check bool)
    "every run ended with packets in flight" true
    (List.for_all (fun n -> n > base) !at_finish)

(* Sharded runs nested inside [-j] jobs: every job's two shards need two
   domains at once, so a fan-out that made a shard wait for a busy
   domain would hang here. *)
let test_nested_in_pool () =
  let run seed =
    let spec = spec_of ~n:6 ~nflows:4 ~seed ~shards:2 in
    (Shardnet.run ~until:0.5 spec).Shardnet.r_flows
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let serial = List.map run seeds in
  Alcotest.(check bool)
    "-j 2 jobs of 2-shard runs equal the serial runs" true
    (Ispn_exec.Pool.map ~j:2 run seeds = serial)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_shard_invariant;
    Alcotest.test_case "one shard runs on the caller" `Quick
      test_one_shard_on_caller;
    Alcotest.test_case "sharded runs inside -j jobs" `Quick test_nested_in_pool;
    Alcotest.test_case "leftover packets freed" `Quick test_leftovers_freed;
    Alcotest.test_case "drop accounting across widths" `Quick test_drops_agree;
    Alcotest.test_case "exchange allocation budget" `Quick test_exchange_budget;
  ]
