(* Differential harness: each production scheduler is driven op-for-op
   against a small transparent reference model (association lists and
   sorted insertion instead of Kheap / Ring / dense arrays) under
   randomized arrival scripts.  The models replay the schedulers' float
   arithmetic operation-for-operation, so accept decisions, dequeue order
   and backlog must match exactly — any divergence is a bug in the
   optimized structures (heap ordering, ring rotation, credit refills,
   busy-period resets) or in the model's reading of the contract.

   Scripts mix simultaneous arrivals (dt = 0), sub-frame steps, idle gaps
   spanning many frames, flow ids past the initial array sizes, mixed
   packet sizes and a pool small enough to exhaust. *)
open Ispn_sim

(* Step choices are off the 10/20 ms frame grids so that model and real
   boundary arithmetic are compared on the same side of every boundary. *)
let dts = [| 0.; 0.; 1e-4; 7e-4; 1.3e-3; 0.0203; 0.0611; 0.2047 |]
let flows_tbl = [| 0; 1; 2; 3; 4; 70; 129 |]
let sizes_tbl = [| 1000; 400; 1600; 100 |]
let cap = 8

(* The same shape as [Qdisc.t], minus the parts a model doesn't need.
   [m_advance] stands in for the engine: it fires the model's frame
   boundaries up to [now]. *)
type model = {
  m_enqueue : now:float -> Packet.t -> bool;
  m_dequeue : now:float -> (int * int) option;
  m_length : unit -> int;
  m_advance : now:float -> unit;
}

let id_of (p : Packet.t) = ((Packet.flow p), (Packet.seq p))

(* --- reference models --- *)

let fifo_model ~capacity () =
  let q = ref [] in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now:_ p ->
        if List.length !q >= capacity then false
        else begin
          q := !q @ [ p ];
          true
        end);
    m_dequeue =
      (fun ~now:_ ->
        match !q with
        | [] -> None
        | p :: rest ->
            q := rest;
            Some (id_of p));
    m_length = (fun () -> List.length !q);
  }

(* Sorted-list priority queue: stable insertion after equal keys gives the
   FIFO-within-equal-keys order the Kheap guarantees. *)
let sorted_insert queue ~key p =
  let rec ins = function
    | ((k, _) as e) :: rest when k <= key -> e :: ins rest
    | rest -> (key, p) :: rest
  in
  queue := ins !queue

let wfq_model ~capacity ~link_rate_bps ~weight_of () =
  let queue = ref [] in
  let count = ref 0 in
  let v = ref 0. and last_update = ref 0. in
  let aw = ref 0. and ac = ref 0 in
  let last_finish = ref [] and qlen = ref [] in
  let get assoc f d = match List.assoc_opt f !assoc with Some x -> x | None -> d in
  let set assoc f x = assoc := (f, x) :: List.remove_assoc f !assoc in
  let advance ~now =
    if now > !last_update then begin
      if !aw > 0. then
        v := !v +. ((now -. !last_update) *. link_rate_bps /. !aw);
      last_update := now
    end
  in
  let fmax (a : float) b = if a >= b then a else b in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now p ->
        if !count >= capacity then false
        else begin
          incr count;
          advance ~now;
          let flow = (Packet.flow p) in
          let w = weight_of flow in
          if get qlen flow 0 = 0 then begin
            aw := !aw +. w;
            incr ac
          end;
          let tag =
            fmax !v (get last_finish flow 0.)
            +. (float_of_int (Packet.size_bits p) /. w)
          in
          set last_finish flow tag;
          set qlen flow (get qlen flow 0 + 1);
          sorted_insert queue ~key:tag p;
          true
        end);
    m_dequeue =
      (fun ~now ->
        match !queue with
        | [] -> None
        | (_, p) :: rest ->
            queue := rest;
            decr count;
            let flow = (Packet.flow p) in
            let q = get qlen flow 0 - 1 in
            set qlen flow q;
            if q = 0 then begin
              advance ~now;
              aw := !aw -. weight_of flow;
              decr ac;
              if !ac = 0 then begin
                (* Busy period over: virtual clock and finish tags restart. *)
                v := 0.;
                aw := 0.;
                last_finish := []
              end
            end;
            Some (id_of p));
    m_length = (fun () -> !count);
  }

let edf_model ~capacity ~deadline_of () =
  let queue = ref [] in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now p ->
        if List.length !queue >= capacity then false
        else begin
          sorted_insert queue ~key:(now +. deadline_of (Packet.flow p)) p;
          true
        end);
    m_dequeue =
      (fun ~now:_ ->
        match !queue with
        | [] -> None
        | (_, p) :: rest ->
            queue := rest;
            Some (id_of p));
    m_length = (fun () -> List.length !queue);
  }

let sg_model ~capacity ~frame () =
  let q = ref [] in
  let next_boundary t =
    (Float.of_int (int_of_float (t /. frame)) +. 1.) *. frame
  in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now p ->
        if List.length !q >= capacity then false
        else begin
          q := !q @ [ (now, p) ];
          true
        end);
    m_dequeue =
      (fun ~now ->
        match !q with
        | [] -> None
        | (arrived, p) :: rest ->
            if next_boundary arrived <= now +. 1e-12 then begin
              q := rest;
              Some (id_of p)
            end
            else None);
    m_length = (fun () -> List.length !q);
  }

let hrr_model ~capacity ~frame ~slots_of () =
  (* flow -> (fifo, slots, credit); [order] mirrors the round-robin ring
     including its rotate-on-every-visit behaviour; [armed] mirrors the
     single pending engine boundary event. *)
  let flows = ref [] in
  let order = ref [] in
  let total = ref 0 in
  let frame_start = ref 0. in
  let armed = ref None in
  let get flow =
    match List.assoc_opt flow !flows with
    | Some st -> st
    | None ->
        let s = slots_of flow in
        let st = (ref [], s, ref s) in
        flows := (flow, st) :: !flows;
        order := !order @ [ flow ];
        st
  in
  let arm ~now =
    if !armed = None then begin
      let next = !frame_start +. frame in
      let next =
        if next <= now then
          (Float.of_int (int_of_float (now /. frame)) +. 1.) *. frame
        else next
      in
      armed := Some next
    end
  in
  let rec process ~now =
    match !armed with
    | Some b when b <= now ->
        armed := None;
        frame_start := b;
        List.iter (fun (_, (_, slots, credit)) -> credit := slots) !flows;
        if !total > 0 then arm ~now:b;
        process ~now
    | _ -> ()
  in
  {
    m_advance = (fun ~now -> process ~now);
    m_enqueue =
      (fun ~now p ->
        if !total >= capacity then false
        else begin
          let fifo, _, _ = get (Packet.flow p) in
          fifo := !fifo @ [ p ];
          incr total;
          arm ~now;
          true
        end);
    m_dequeue =
      (fun ~now:_ ->
        if !total = 0 then None
        else begin
          let n = List.length !order in
          let rec visit k =
            if k >= n then None
            else
              match !order with
              | [] -> None
              | flow :: rest -> (
                  order := rest @ [ flow ];
                  let fifo, _, credit = List.assoc flow !flows in
                  match !fifo with
                  | p :: tail when !credit > 0 ->
                      decr credit;
                      decr total;
                      fifo := tail;
                      Some (id_of p)
                  | _ -> visit (k + 1))
          in
          visit 0
        end);
    m_length = (fun () -> !total);
  }

(* --- the driver --- *)

let script_arb =
  QCheck.(
    list_of_size
      (QCheck.Gen.int_range 1 120)
      (quad
         (int_bound (Array.length dts - 1))
         (int_bound 2)
         (int_bound (Array.length flows_tbl - 1))
         (int_bound (Array.length sizes_tbl - 1))))

let differential ~name ~make_qdisc ~make_model =
  QCheck.Test.make ~name ~count:1000 script_arb (fun script ->
      let engine = Engine.create () in
      let q : Qdisc.t = make_qdisc engine in
      let m = make_model () in
      let now = ref 0. in
      let seq = ref 0 in
      let compare_deq label =
        let r = Option.map id_of (q.Qdisc.dequeue ~now:!now) in
        let mr = m.m_dequeue ~now:!now in
        if r <> mr then
          QCheck.Test.fail_reportf
            "%s dequeue mismatch at t=%.6f: real %s, model %s" label !now
            (match r with
            | None -> "None"
            | Some (f, s) -> Printf.sprintf "(%d,%d)" f s)
            (match mr with
            | None -> "None"
            | Some (f, s) -> Printf.sprintf "(%d,%d)" f s);
        r
      in
      let check_length label =
        if q.Qdisc.length () <> m.m_length () then
          QCheck.Test.fail_reportf
            "%s length mismatch at t=%.6f: real %d, model %d" label !now
            (q.Qdisc.length ()) (m.m_length ())
      in
      let step (dt_i, kind, flow_i, size_i) =
        now := !now +. dts.(dt_i);
        Engine.run engine ~until:!now;
        m.m_advance ~now:!now;
        if kind <= 1 then begin
          let flow = flows_tbl.(flow_i) and size_bits = sizes_tbl.(size_i) in
          let p = Packet.make ~flow ~seq:!seq ~size_bits ~created:!now () in
          let p' = Packet.make ~flow ~seq:!seq ~size_bits ~created:!now () in
          incr seq;
          let ra = q.Qdisc.enqueue ~now:!now p in
          let ma = m.m_enqueue ~now:!now p' in
          if ra <> ma then
            QCheck.Test.fail_reportf
              "enqueue accept mismatch at t=%.6f flow %d: real %b, model %b"
              !now flow ra ma
        end
        else ignore (compare_deq "script");
        check_length "script"
      in
      List.iter step script;
      (* Drain: whatever is still queued must come out of both in the same
         order; the off-grid step crosses every frame boundary. *)
      let guard = ref 0 in
      while q.Qdisc.length () > 0 && !guard < 1000 do
        incr guard;
        now := !now +. 0.0501;
        Engine.run engine ~until:!now;
        m.m_advance ~now:!now;
        let rec pump () = if compare_deq "drain" <> None then pump () in
        pump ();
        check_length "drain"
      done;
      if q.Qdisc.length () <> 0 || m.m_length () <> 0 then
        QCheck.Test.fail_reportf "failed to drain: real %d, model %d"
          (q.Qdisc.length ()) (m.m_length ());
      true)

(* Per-flow parameters are pure functions of the flow id, so consulting
   them once (real schedulers) or repeatedly (models) is equivalent. *)
let weight_of f = float_of_int ((f mod 3) + 1) *. 250.
let deadline_of f = float_of_int (f mod 4) *. 0.005
let slots_of f = (f mod 2) + 1

let fifo_diff =
  differential ~name:"FIFO matches list model"
    ~make_qdisc:(fun _ ->
      Ispn_sched.Fifo.create ~pool:(Qdisc.pool ~capacity:cap) ())
    ~make_model:(fifo_model ~capacity:cap)

let wfq_diff =
  differential ~name:"WFQ matches sorted-list model"
    ~make_qdisc:(fun _ ->
      Ispn_sched.Wfq.create
        ~pool:(Qdisc.pool ~capacity:cap)
        ~link_rate_bps:1e6 ~weight_of ())
    ~make_model:(wfq_model ~capacity:cap ~link_rate_bps:1e6 ~weight_of)

let edf_diff =
  differential ~name:"EDF matches sorted-list model"
    ~make_qdisc:(fun _ ->
      Ispn_sched.Edf.create ~pool:(Qdisc.pool ~capacity:cap) ~deadline_of ())
    ~make_model:(edf_model ~capacity:cap ~deadline_of)

let sg_diff =
  differential ~name:"Stop-and-Go matches frame-grid model"
    ~make_qdisc:(fun engine ->
      Ispn_sched.Stop_and_go.create ~engine ~frame:0.010
        ~pool:(Qdisc.pool ~capacity:cap)
        ())
    ~make_model:(sg_model ~capacity:cap ~frame:0.010)

let hrr_diff =
  differential ~name:"HRR matches frame-grid model"
    ~make_qdisc:(fun engine ->
      Ispn_sched.Hrr.create ~engine ~frame:0.020 ~slots_of
        ~pool:(Qdisc.pool ~capacity:cap)
        ())
    ~make_model:(hrr_model ~capacity:cap ~frame:0.020 ~slots_of)

(* --- modern-shaper models (PR: machine-checked bake-off) ---

   WRR is integer arithmetic throughout, so its model is exact by
   construction.  CBS and ATS replay the schedulers' float credit/token
   updates at the same touch points with the same operation order
   (enqueue touches the packet's class only; dequeue touches every class
   — CBS — or refills each scanned head's bucket — ATS — in priority
   order), so both sides compute bit-identical floats and the eligibility
   comparisons can be mirrored verbatim.  The real schedulers also arm
   engine waker events; with no link attached the waker hook is a no-op
   and firing it changes no scheduler state, so the models ignore it. *)

let wrr_model ~capacity ~weight_of () =
  (* flow -> (fifo, weight, credit, in_round); [current] is the open
     service opportunity, exactly as in the scheduler. *)
  let flows = ref [] in
  let active = ref [] in
  let current = ref (-1) in
  let total = ref 0 in
  let get flow =
    match List.assoc_opt flow !flows with
    | Some st -> st
    | None ->
        let st = (ref [], weight_of flow, ref 0, ref false) in
        flows := (flow, st) :: !flows;
        st
  in
  let serve flow =
    let fifo, _, credit, in_round = List.assoc flow !flows in
    match !fifo with
    | [] -> assert false
    | p :: rest ->
        fifo := rest;
        credit := !credit - 1;
        decr total;
        if rest = [] then begin
          credit := 0;
          in_round := false;
          current := -1
        end
        else if !credit < 1 then begin
          in_round := true;
          active := !active @ [ flow ];
          current := -1
        end;
        Some (id_of p)
  in
  let rec deq () =
    if !current >= 0 then serve !current
    else
      match !active with
      | [] -> None
      | flow :: rest -> (
          active := rest;
          let fifo, weight, credit, in_round = List.assoc flow !flows in
          if !fifo = [] then begin
            in_round := false;
            deq ()
          end
          else begin
            credit := !credit + weight;
            in_round := false;
            current := flow;
            deq ()
          end)
  in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now:_ p ->
        if !total >= capacity then false
        else begin
          let flow = Packet.flow p in
          let fifo, _, credit, in_round = get flow in
          fifo := !fifo @ [ p ];
          incr total;
          if (not !in_round) && !current <> flow then begin
            in_round := true;
            credit := 0;
            active := !active @ [ flow ]
          end;
          true
        end);
    m_dequeue = (fun ~now:_ -> deq ());
    m_length = (fun () -> !total);
  }

let cbs_model ~capacity ~slopes ~class_of () =
  let n = Array.length slopes in
  let q = Array.make n [] in
  let credit = Array.make n 0. in
  let last = Array.make n 0. in
  let total = ref 0 in
  let touch i ~now =
    if now > last.(i) then begin
      if q.(i) <> [] then credit.(i) <- credit.(i) +. (slopes.(i) *. (now -. last.(i)))
      else if credit.(i) < 0. then
        credit.(i) <- Float.min 0. (credit.(i) +. (slopes.(i) *. (now -. last.(i))));
      last.(i) <- now
    end
  in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now p ->
        if !total >= capacity then false
        else begin
          let c = class_of (Packet.flow p) in
          touch c ~now;
          q.(c) <- q.(c) @ [ p ];
          incr total;
          true
        end);
    m_dequeue =
      (fun ~now ->
        for i = 0 to n - 1 do
          touch i ~now
        done;
        let rec pick i =
          if i >= n then None
          else
            match q.(i) with
            | p :: rest when credit.(i) >= -1e-6 ->
                q.(i) <- rest;
                credit.(i) <- credit.(i) -. float (Packet.size_bits p);
                if rest = [] && credit.(i) > 0. then credit.(i) <- 0.;
                decr total;
                Some (id_of p)
            | _ -> pick (i + 1)
        in
        pick 0);
    m_length = (fun () -> !total);
  }

let ats_model ~capacity ~n_classes ~class_of ~shaper_of () =
  let q = Array.make n_classes [] in
  (* flow -> (tokens, last); buckets start full with last = 0, as in the
     scheduler's [ensure]. *)
  let buckets = ref [] in
  let total = ref 0 in
  let ensure flow =
    if not (List.mem_assoc flow !buckets) then begin
      let _, b = shaper_of flow in
      buckets := (flow, (ref b, ref 0.)) :: !buckets
    end
  in
  let refill flow ~now =
    let tokens, last = List.assoc flow !buckets in
    let r, b = shaper_of flow in
    if now > !last then begin
      tokens := Float.min b (!tokens +. ((now -. !last) *. r));
      last := now
    end
  in
  {
    m_advance = (fun ~now:_ -> ());
    m_enqueue =
      (fun ~now:_ p ->
        if !total >= capacity then false
        else begin
          let flow = Packet.flow p in
          ensure flow;
          q.(class_of flow) <- q.(class_of flow) @ [ p ];
          incr total;
          true
        end);
    m_dequeue =
      (fun ~now ->
        let rec pick i =
          if i >= n_classes then None
          else
            match q.(i) with
            | [] -> pick (i + 1)
            | p :: rest ->
                let flow = Packet.flow p in
                refill flow ~now;
                let tokens, _ = List.assoc flow !buckets in
                let need = float (Packet.size_bits p) in
                if !tokens >= need -. 1e-9 then begin
                  q.(i) <- rest;
                  tokens := !tokens -. need;
                  decr total;
                  Some (id_of p)
                end
                else pick (i + 1)
        in
        pick 0);
    m_length = (fun () -> !total);
  }

(* Per-flow parameters as pure functions of the flow id, like
   [weight_of] above; the ATS depths cover the largest script packet. *)
let wrr_weight_of f = (f mod 3) + 1
let cbs_class_of f = f mod 2
let cbs_slopes = [| 3e5; 2e5 |]
let ats_class_of f = f mod 3

let ats_shaper_of f =
  (float_of_int ((f mod 3) + 1) *. 1e5, 2000. +. (float_of_int (f mod 4) *. 800.))

let wrr_diff =
  differential ~name:"WRR matches round-robin model"
    ~make_qdisc:(fun _ ->
      Ispn_sched.Wrr.create
        ~pool:(Qdisc.pool ~capacity:cap)
        ~weight_of:wrr_weight_of ())
    ~make_model:(wrr_model ~capacity:cap ~weight_of:wrr_weight_of)

let cbs_diff =
  differential ~name:"CBS matches credit model"
    ~make_qdisc:(fun engine ->
      Ispn_sched.Cbs.create ~engine
        ~pool:(Qdisc.pool ~capacity:cap)
        ~idle_slopes_bps:cbs_slopes ~class_of:cbs_class_of ())
    ~make_model:(cbs_model ~capacity:cap ~slopes:cbs_slopes ~class_of:cbs_class_of)

let ats_diff =
  differential ~name:"ATS matches token-bucket model"
    ~make_qdisc:(fun engine ->
      Ispn_sched.Ats.create ~engine
        ~pool:(Qdisc.pool ~capacity:cap)
        ~n_classes:3 ~class_of:ats_class_of ~shaper_of:ats_shaper_of ())
    ~make_model:
      (ats_model ~capacity:cap ~n_classes:3 ~class_of:ats_class_of
         ~shaper_of:ats_shaper_of)

(* Every delivered packet in a randomized bake-off run satisfies the
   scheduler's registered analytic bound: run one bounded scheduler on
   the Figure-1 workload under a random seed with the audit attached —
   the bound invariants must have fired and found nothing. *)
let bound_audit_prop =
  QCheck.Test.make ~name:"bake-off delivery obeys registered analytic bounds"
    ~count:8
    QCheck.(pair (int_bound 3) (int_bound 1000))
    (fun (si, seed) ->
      let module X = Csz.Extensions in
      let sched =
        List.nth [ X.B_mc_fifo; X.B_wrr; X.B_cbs; X.B_ats ] si
      in
      match
        X.run_bakeoff ~duration:2. ~seed:(Int64.of_int (seed + 1))
          ~scheds:[ sched ] ~check:true ()
      with
      | [ row ] -> (
          match row.X.bk_check with
          | None -> QCheck.Test.fail_report "no audit summary under ~check"
          | Some s ->
              if s.Ispn_check.Audit.violations <> 0 then
                QCheck.Test.fail_reportf "%s: %d bound/invariant violations"
                  (X.bakeoff_name sched) s.Ispn_check.Audit.violations;
              let bound_checks =
                List.fold_left
                  (fun acc (c : Ispn_check.Audit.inv_summary) ->
                    if c.Ispn_check.Audit.inv_name = "delay-bound" then
                      acc + c.Ispn_check.Audit.inv_checks
                    else acc)
                  0 s.Ispn_check.Audit.invariants
              in
              if bound_checks = 0 then
                QCheck.Test.fail_reportf "%s: bound invariant never checked"
                  (X.bakeoff_name sched);
              true)
      | _ -> QCheck.Test.fail_report "expected exactly one row")

(* --- Recycled flow ids: the slot carries nothing across incarnations ---

   Two CSZ schedulers live through the same history, except that the first
   hosts a full prior session (guaranteed with traffic, retired, then
   predicted, then cleared) under flow id 5 where the second hosts it
   under flow id 99.  Global state (virtual time, class estimators) ends
   identical; only the id-5 slot's history differs: used-and-recycled vs
   virgin.  An identical post-recycle script on flow 5 must then produce
   identical accept decisions and dequeue order — any inherited weight,
   finish tag, class or retiring flag would diverge. *)

let test_recycled_flow_slot_is_pristine () =
  let make_sched () =
    Csz.Csz_sched.create ~pool:(Qdisc.pool ~capacity:32) ()
  in
  let sa, qa = make_sched () in
  let sb, qb = make_sched () in
  let enq q ~now ~flow ~seq ~size =
    let p = Packet.make ~flow ~seq ~size_bits:size ~created:now () in
    let ok = q.Qdisc.enqueue ~now p in
    if not ok then Packet.free p;
    ok
  in
  let drain q now0 =
    let now = ref now0 in
    let out = ref [] in
    let rec go () =
      match q.Qdisc.dequeue ~now:!now with
      | Some p ->
          out := id_of p :: !out;
          Packet.free p;
          now := !now +. 0.0007;
          go ()
      | None -> ()
    in
    go ();
    List.rev !out
  in
  let prior s q ~guest =
    Csz.Csz_sched.add_guaranteed s ~flow:guest ~clock_rate_bps:300_000.;
    for i = 0 to 4 do
      ignore (enq q ~now:0. ~flow:guest ~seq:i ~size:1000)
    done;
    for i = 5 to 7 do
      ignore (enq q ~now:0. ~flow:8 ~seq:i ~size:1000)
    done;
    ignore (drain q 0.);
    Csz.Csz_sched.remove_guaranteed s ~flow:guest;
    Csz.Csz_sched.set_predicted s ~flow:guest ~cls:0;
    ignore (enq q ~now:0.01 ~flow:guest ~seq:20 ~size:1000);
    ignore (enq q ~now:0.01 ~flow:9 ~seq:21 ~size:1000);
    ignore (drain q 0.0105);
    Csz.Csz_sched.clear_predicted s ~flow:guest
  in
  let replay s q =
    (* Flow 5's second life: datagram first, then guaranteed again, racing
       another guaranteed flow and background datagrams. *)
    ignore (enq q ~now:0.019 ~flow:5 ~seq:90 ~size:400);
    let pre = drain q 0.019 in
    Csz.Csz_sched.add_guaranteed s ~flow:5 ~clock_rate_bps:200_000.;
    Csz.Csz_sched.add_guaranteed s ~flow:2 ~clock_rate_bps:400_000.;
    let accepts = ref [] in
    let now = ref 0.02 in
    List.iter
      (fun (flow, seq, size) ->
        accepts := enq q ~now:!now ~flow ~seq ~size :: !accepts;
        now := !now +. 0.0003)
      [
        (5, 100, 1000); (2, 101, 400); (3, 102, 1600); (5, 103, 1000);
        (2, 104, 1000); (5, 105, 400); (3, 106, 1000); (5, 107, 1600);
        (2, 108, 1000); (5, 109, 1000);
      ];
    (pre, List.rev !accepts, drain q !now)
  in
  prior sa qa ~guest:5;
  prior sb qb ~guest:99;
  let pre_a, acc_a, out_a = replay sa qa in
  let pre_b, acc_b, out_b = replay sb qb in
  Alcotest.(check (list (pair int int))) "datagram phase identical" pre_b pre_a;
  Alcotest.(check (list bool)) "accept decisions identical" acc_b acc_a;
  Alcotest.(check (list (pair int int))) "dequeue order identical" out_b out_a;
  Alcotest.(check (float 0.)) "no residual reservation differs"
    (Csz.Csz_sched.guaranteed_reserved_bps sb)
    (Csz.Csz_sched.guaranteed_reserved_bps sa)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      fifo_diff; wfq_diff; edf_diff; sg_diff; hrr_diff; wrr_diff; cbs_diff;
      ats_diff; bound_audit_prop;
    ]
  @ [
      Alcotest.test_case "recycled flow slot is pristine" `Quick
        test_recycled_flow_slot_is_pristine;
    ]
