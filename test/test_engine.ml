open Ispn_sim

let test_time_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~at:3. (note "c"));
  ignore (Engine.schedule e ~at:1. (note "a"));
  ignore (Engine.schedule e ~at:2. (note "b"));
  Engine.run e ~until:10.;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule e ~at:1. (fun () -> log := i :: !log))
  done;
  Engine.run e ~until:2.;
  Alcotest.(check (list int)) "scheduling order on ties"
    (List.init 10 Fun.id) (List.rev !log)

let test_clock_advances_to_until () =
  let e = Engine.create () in
  Engine.run e ~until:5.;
  Alcotest.(check (float 1e-9)) "clock" 5. (Engine.now e)

let test_events_after_until_stay () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~at:7. (fun () -> fired := true));
  Engine.run e ~until:5.;
  Alcotest.(check bool) "not yet" false !fired;
  Engine.run e ~until:10.;
  Alcotest.(check bool) "eventually" true !fired

let test_schedule_during_run () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~at:1. (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~at:2. (fun () -> log := "inner" :: !log))));
  Engine.run e ~until:3.;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_stats_counters () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:1. (fun () -> ()));
  let h = Engine.schedule e ~at:2. (fun () -> ()) in
  Engine.cancel e h;
  ignore (Engine.schedule e ~at:3. (fun () -> ()));
  Engine.run e ~until:10.;
  let st = Engine.stats e in
  Alcotest.(check int) "events fired" 2 st.Engine.events_fired;
  Alcotest.(check int) "cancels skipped" 1 st.Engine.cancels_skipped

(* The hot-path regression guard: draining the engine must cost a small
   constant number of minor words per event (the event record itself plus
   heap bookkeeping), not grow with an option box per pop/peek.  This also
   pins the observability contract: the unconditional [heap_depth_hwm]
   tracking (and the disabled-metrics path generally) must stay a bare
   compare, never an allocation.  A chain of 1e6 self-rescheduling events,
   half with a cancelled decoy, stays under 64 words/event with room to
   spare. *)
let test_run_alloc_per_event () =
  let e = Engine.create () in
  let n = 1_000_000 in
  let count = ref 0 in
  let rec act () =
    incr count;
    if !count < n then begin
      ignore (Engine.schedule_after e ~delay:1e-6 act);
      if !count land 1 = 0 then
        Engine.cancel e (Engine.schedule_after e ~delay:2e-6 (fun () -> ()))
    end
  in
  ignore (Engine.schedule_after e ~delay:1e-6 act);
  let before = Gc.minor_words () in
  Engine.run e ~until:10.;
  let words = Gc.minor_words () -. before in
  let st = Engine.stats e in
  Alcotest.(check int) "all fired" n st.Engine.events_fired;
  let per_event =
    words /. float_of_int (st.Engine.events_fired + st.Engine.cancels_skipped)
  in
  if per_event > 64. then
    Alcotest.failf "%.1f minor words per event (expected O(1), <= 64)"
      per_event;
  let hwm = Engine.heap_depth_hwm e in
  if hwm < 1 || hwm > 4 then
    Alcotest.failf "heap hwm %d (expected the 1-2 live events of the chain)"
      hwm

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~at:1. (fun () -> fired := true) in
  Alcotest.(check int) "pending" 1 (Engine.pending e);
  Engine.cancel e h;
  Alcotest.(check int) "pending after cancel" 0 (Engine.pending e);
  Engine.cancel e h;
  (* idempotent *)
  Engine.run e ~until:2.;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_schedule_in_past_rejected () =
  let e = Engine.create () in
  Engine.run e ~until:5.;
  try
    ignore (Engine.schedule e ~at:1. (fun () -> ()));
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_schedule_after () =
  let e = Engine.create () in
  let seen = ref 0. in
  ignore (Engine.schedule e ~at:2. (fun () ->
      ignore (Engine.schedule_after e ~delay:3. (fun () -> seen := Engine.now e))));
  Engine.run e ~until:10.;
  Alcotest.(check (float 1e-9)) "fires at 5" 5. !seen

let test_run_until_idle_budget () =
  let e = Engine.create () in
  (* A self-perpetuating event chain must trip the budget guard. *)
  let rec forever () = ignore (Engine.schedule_after e ~delay:1. forever) in
  forever ();
  try
    Engine.run_until_idle e ~max_events:100;
    Alcotest.fail "expected Failure"
  with Failure _ -> ()

let test_run_until_idle_drains () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~at:(float_of_int i) (fun () -> incr count))
  done;
  Engine.run_until_idle e ~max_events:100;
  Alcotest.(check int) "all fired" 5 !count

(* A rejected schedule must leave no trace: no slot, no pending count,
   no high-water mark.  NaN is rejected up front — a heap would otherwise
   accept it and fire everything around it out of order. *)
let test_nan_rejected_cleanly () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~at:1. (fun () -> ()));
  let expect_invalid what prefix f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "%s: message %S does not name %s" what msg prefix
  in
  let before = (Engine.pending e, Engine.heap_depth_hwm e, Engine.stats e) in
  expect_invalid "schedule ~at:nan" "Engine.schedule:" (fun () ->
      Engine.schedule e ~at:Float.nan (fun () -> ()));
  expect_invalid "schedule_after ~delay:nan" "Engine.schedule_after:"
    (fun () -> Engine.schedule_after e ~delay:Float.nan (fun () -> ()));
  expect_invalid "schedule_after ~delay:-1" "Engine.schedule_after:"
    (fun () -> Engine.schedule_after e ~delay:(-1.) (fun () -> ()));
  let after = (Engine.pending e, Engine.heap_depth_hwm e, Engine.stats e) in
  let p (pending, hwm, st) =
    Printf.sprintf "pending=%d hwm=%d fired=%d skipped=%d" pending hwm
      st.Engine.events_fired st.Engine.cancels_skipped
  in
  Alcotest.(check string) "state unchanged" (p before) (p after);
  Engine.run e ~until:2.;
  Alcotest.(check int) "the valid event still fires" 1
    (Engine.stats e).Engine.events_fired

(* Differential test of the pending-event store against a sorted-list
   model ordered by (time, schedule rank).  Delay classes cover ties, the
   sub-millisecond spacing of packet transmissions, and timers out to
   10 s.  Cancels pick any handle issued so far — live, already fired or
   already cancelled.  A [nested] event schedules a child at [now] from
   inside the run, which must fire after every earlier-scheduled event at
   the same instant.  [Run_to k] lands [until] exactly on the time of the
   k-th queued entry.  With [rearm], every event but a timeout cancels the
   one shared timeout and arms a new one [rto] ahead, as
   [Tcp.arm_timer] does on every ack: dead entries then pile up faster
   than they surface, so the engine compacts its heap.  The model mirrors
   the compaction rule — once a cancel leaves more than [live + slack]
   dead entries queued, every dead entry is discarded and counted as
   skipped — so [cancels_skipped] and [pending] must agree exactly. *)
type op =
  | Sched of { absolute : bool; frac : float; nested : bool }
  | Lane of { lane : int; absolute : bool; frac : float; nested : bool }
  | Cancel of int
  | Run_by of float
  | Run_to of int

let slack = 32
let rto = 1.0
let n_lanes = 3

let delay_of_frac u =
  if u < 0.2 then 0.
  else if u < 0.45 then 1e-3 *. (u -. 0.2) /. 0.25
  else if u < 0.75 then 0.5 *. (u -. 0.45) /. 0.3
  else 10.0 *. (u -. 0.75) /. 0.25

(* Two far-apart modes, as link events and slow timers are in a real run:
   ties at the current instant, packet-time delays up to 1 ms, and
   timers of 0.5-15 s.  The running mean then falls between the modes,
   so the engine keeps entries in both of its heaps. *)
let bimodal_delay_of_frac u =
  if u < 0.15 then 0.
  else if u < 0.8 then 1e-3 *. (u -. 0.15) /. 0.65
  else 0.5 +. (14.5 *. (u -. 0.8) /. 0.2)

(* Whole milliseconds from 0 to 7, so that events scheduled from the same
   instant often tie on time: plain with plain, lane with lane and lane
   with plain. *)
let grid_delay_of_frac u = 1e-3 *. Float.of_int (int_of_float (u *. 8.))

let engine_op_gen ?(run_to_weight = 1) ?(lane_weight = 0) ~max_frac
    ~cancel_weight () =
  QCheck.Gen.(
    frequency
      [
        ( lane_weight,
          map3
            (fun lane (absolute, frac) nested ->
              Lane { lane; absolute; frac; nested })
            (int_bound (n_lanes - 1))
            (pair bool (float_bound_exclusive max_frac))
            (map (fun k -> k = 0) (int_bound 4)) );
        ( 6,
          map3
            (fun absolute frac nested -> Sched { absolute; frac; nested })
            bool (float_bound_exclusive max_frac)
            (map (fun k -> k = 0) (int_bound 4)) );
        (cancel_weight, map (fun k -> Cancel k) (int_bound 1000));
        (1, map (fun u -> Run_by u) (float_bound_exclusive max_frac));
        (run_to_weight, map (fun k -> Run_to k) (int_bound 1000));
      ])

let print_engine_op ~delay_of = function
  | Sched { absolute; frac; nested } ->
      Printf.sprintf "Sched{abs=%b; delay=%.17g; nested=%b}" absolute
        (delay_of frac) nested
  | Lane { lane; absolute; frac; nested } ->
      Printf.sprintf "Lane{lane=%d; abs=%b; delay=%.17g; nested=%b}" lane
        absolute (delay_of frac) nested
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Run_by u -> Printf.sprintf "Run_by %.17g" (delay_of u)
  | Run_to k -> Printf.sprintf "Run_to %d" k

type entry = {
  time : float;
  rank : int;
  id : int;
  nested : bool;
  timeout : bool;
  near : bool;
  lane : int; (* -1 for a plain event *)
  mutable cancelled : bool;
}

type model = {
  rearm : bool;
  mutable clock : float;
  mutable queue : entry list; (* sorted by (time, rank), cancelled kept *)
  mutable next_rank : int;
  mutable next_id : int;
  ids : (int, entry) Hashtbl.t; (* every entry not yet fired or skipped *)
  mutable timer : int option; (* id of the last timeout armed *)
  mutable m_log : int list;
  mutable m_fired : int;
  mutable m_skipped : int;
  mutable m_compactions : int;
  mutable m_hwm : int;
  tails : float array; (* time of each lane's last push *)
  mutable last_fired : entry option;
  mutable m_lane_ties : int; (* a lane entry fired at a plain one's time *)
  (* The engine's near/far split rule, mirrored only to measure coverage:
     the sum and count of every delay so far, and the compactions that
     discarded entries from both heaps. *)
  mutable delay_sum : float;
  mutable delay_count : float;
  mutable m_split_compactions : int;
}

let model_pending m =
  List.length (List.filter (fun x -> not x.cancelled) m.queue)

let model_schedule ?(lane = -1) m ~time ~nested ~timeout =
  let delay = time -. m.clock in
  let near = delay *. m.delay_count < m.delay_sum in
  m.delay_sum <- m.delay_sum +. delay;
  m.delay_count <- m.delay_count +. 1.;
  let x =
    {
      time;
      rank = m.next_rank;
      id = m.next_id;
      nested;
      timeout;
      near;
      lane;
      cancelled = false;
    }
  in
  if lane >= 0 then m.tails.(lane) <- time;
  m.next_rank <- m.next_rank + 1;
  m.next_id <- m.next_id + 1;
  Hashtbl.replace m.ids x.id x;
  let rec ins = function
    | [] -> [ x ]
    | y :: tl when y.time < time || (y.time = time && y.rank < x.rank) ->
        y :: ins tl
    | l -> x :: l
  in
  m.queue <- ins m.queue;
  m.m_hwm <- Stdlib.max m.m_hwm (model_pending m)

(* A lane entry never lands before the lane's last one: a push that would
   is made at the last one's time instead, a tie within the lane. *)
let model_lane_push m ~lane ~time ~nested =
  let time = if time >= m.tails.(lane) then time else m.tails.(lane) in
  model_schedule m ~lane ~time ~nested ~timeout:false

let model_cancel m id =
  match Hashtbl.find_opt m.ids id with
  | Some x when (not x.cancelled) && x.lane < 0 ->
      x.cancelled <- true;
      let live = model_pending m in
      if List.length m.queue - live > live + slack then begin
        let dead, kept = List.partition (fun x -> x.cancelled) m.queue in
        m.queue <- kept;
        m.m_skipped <- m.m_skipped + List.length dead;
        m.m_compactions <- m.m_compactions + 1;
        if List.exists (fun x -> x.near) dead
           && List.exists (fun x -> not x.near) dead
        then m.m_split_compactions <- m.m_split_compactions + 1;
        List.iter (fun x -> Hashtbl.remove m.ids x.id) dead
      end
  | Some _ | None -> ()

let model_run m ~until =
  let rec go () =
    match m.queue with
    | x :: rest when x.time <= until ->
        m.queue <- rest;
        Hashtbl.remove m.ids x.id;
        if x.cancelled then m.m_skipped <- m.m_skipped + 1
        else begin
          (match m.last_fired with
          | Some y when y.time = x.time && (y.lane < 0) <> (x.lane < 0) ->
              m.m_lane_ties <- m.m_lane_ties + 1
          | Some _ | None -> ());
          m.last_fired <- Some x;
          m.clock <- x.time;
          m.m_fired <- m.m_fired + 1;
          m.m_log <- x.id :: m.m_log;
          if x.nested then
            if x.lane < 0 then
              model_schedule m ~time:m.clock ~nested:false ~timeout:false
            else
              model_lane_push m ~lane:x.lane ~time:m.clock ~nested:false;
          if m.rearm && not x.timeout then begin
            Option.iter (model_cancel m) m.timer;
            m.timer <- Some m.next_id;
            model_schedule m ~time:(m.clock +. rto) ~nested:false
              ~timeout:true
          end
        end;
        go ()
    | _ -> ()
  in
  go ();
  if until > m.clock then m.clock <- until

(* Runs [ops] on an engine and on the model; true when they agree after
   every step and after a final drain.  Returns the model too, so a caller
   can see how often it compacted. *)
let engine_vs_model ?(delay_of = delay_of_frac) ~rearm ops =
  let e = Engine.create () in
  let m =
    {
      rearm;
      clock = 0.;
      queue = [];
      next_rank = 0;
      next_id = 0;
      ids = Hashtbl.create 64;
      timer = None;
      m_log = [];
      m_fired = 0;
      m_skipped = 0;
      m_compactions = 0;
      m_hwm = 0;
      tails = Array.make n_lanes 0.;
      last_fired = None;
      m_lane_ties = 0;
      delay_sum = 0.;
      delay_count = 0.;
      m_split_compactions = 0;
    }
  in
  let handles = Hashtbl.create 64 in
  let next_id = ref 0 in
  let timer = ref None in
  let log = ref [] in
  (* A lane's payload is the entry's id; its action is looked up here. *)
  let lane_acts = Hashtbl.create 64 in
  let lanes =
    Array.init n_lanes (fun _ ->
        Engine.lane e (fun id ->
            let act = Hashtbl.find lane_acts id in
            Hashtbl.remove lane_acts id;
            act ()))
  in
  let tails = Array.make n_lanes 0. in
  let rec action ~id ~lane ~nested ~timeout () =
    log := id :: !log;
    if nested then
      if lane < 0 then
        sched ~absolute:true ~delay:0. ~nested:false ~timeout:false
      else lane_push ~lane ~absolute:false ~delay:0. ~nested:false;
    if rearm && not timeout then begin
      Option.iter (fun t -> Engine.cancel e (Hashtbl.find handles t)) !timer;
      timer := Some !next_id;
      sched ~absolute:false ~delay:rto ~nested:false ~timeout:true
    end
  and sched ~absolute ~delay ~nested ~timeout =
    let id = !next_id in
    incr next_id;
    let act = action ~id ~lane:(-1) ~nested ~timeout in
    let h =
      if absolute then Engine.schedule e ~at:(Engine.now e +. delay) act
      else Engine.schedule_after e ~delay act
    in
    Hashtbl.replace handles id h
  and lane_push ~lane ~absolute ~delay ~nested =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace lane_acts id (action ~id ~lane ~nested ~timeout:false);
    let l = lanes.(lane) in
    let at = Engine.now e +. delay in
    if at < tails.(lane) then Engine.lane_push l ~at:tails.(lane) id
    else begin
      tails.(lane) <- at;
      if absolute then Engine.lane_push l ~at id
      else Engine.lane_push_after l ~delay id
    end
  in
  let step = function
    | Sched { absolute; frac; nested } ->
        let delay = delay_of frac in
        sched ~absolute ~delay ~nested ~timeout:false;
        model_schedule m ~time:(m.clock +. delay) ~nested ~timeout:false
    | Lane { lane; absolute; frac; nested } ->
        let delay = delay_of frac in
        lane_push ~lane ~absolute ~delay ~nested;
        model_lane_push m ~lane ~time:(m.clock +. delay) ~nested
    | Cancel k ->
        (* Lane entries have no handle: a cancel that picks one is a
           no-op on both sides. *)
        if m.next_id > 0 then begin
          let id = k mod m.next_id in
          Option.iter (Engine.cancel e) (Hashtbl.find_opt handles id);
          model_cancel m id
        end
    | Run_by u ->
        let until = m.clock +. delay_of u in
        Engine.run e ~until;
        model_run m ~until
    | Run_to k ->
        let until =
          match m.queue with
          | [] -> m.clock
          | q -> (List.nth q (k mod List.length q)).time
        in
        Engine.run e ~until;
        model_run m ~until
  in
  let agree () =
    Engine.now e = m.clock
    && Engine.pending e = model_pending m
    && Engine.heap_depth_hwm e = m.m_hwm
    && (Engine.stats e).Engine.events_fired = m.m_fired
    && (Engine.stats e).Engine.cancels_skipped = m.m_skipped
    && !log = m.m_log
  in
  let ok =
    List.for_all
      (fun op ->
        step op;
        agree ())
      ops
    &&
    let until = m.clock +. 20. in
    Engine.run e ~until;
    model_run m ~until;
    agree () && Engine.pending e = 0
  in
  (ok, m)

let plain_script =
  QCheck.Gen.(
    list_size (int_range 0 300) (engine_op_gen ~max_frac:1. ~cancel_weight:2 ()))

(* Long, cancel-heavy, and with delays of at most 0.5 s, so that dozens of
   re-armings land within one [rto] and the dead entries pass the slack. *)
let rearm_script =
  QCheck.Gen.(
    list_size (int_range 200 300)
      (engine_op_gen ~max_frac:0.75 ~cancel_weight:4 ()))

(* Bimodal delays with cancels and re-arming, long enough that dead
   entries pile up in both heaps and compaction sweeps them together.  No
   [Run_to]: a jump to a random queued entry, often a timer seconds away,
   would surface the dead timeouts before they pile up. *)
let bimodal_script =
  QCheck.Gen.(
    list_size (int_range 150 300)
      (engine_op_gen ~run_to_weight:0 ~max_frac:1. ~cancel_weight:4 ()))

(* Plain events, cancels and pushes onto three lanes on the millisecond
   grid, so lane entries tie on time with each other and with plain
   events. *)
let lane_script =
  QCheck.Gen.(
    list_size (int_range 0 300)
      (engine_op_gen ~lane_weight:6 ~max_frac:1. ~cancel_weight:2 ()))

(* The same with timeout re-arming: dead plain entries pile up while lane
   entries wait behind their heads, so compaction runs with lanes queued,
   and its trigger must count only the entries that are in the heaps. *)
let lane_rearm_script =
  QCheck.Gen.(
    list_size (int_range 200 300)
      (engine_op_gen ~lane_weight:6 ~max_frac:1. ~cancel_weight:4 ()))

let arb_script ?(delay_of = delay_of_frac) gen =
  QCheck.make
    ~print:QCheck.Print.(list (print_engine_op ~delay_of))
    ~shrink:QCheck.Shrink.list gen

let qcheck_matches_model =
  QCheck.Test.make ~count:300 ~name:"engine matches sorted-list model"
    (arb_script plain_script)
    (fun ops -> fst (engine_vs_model ~rearm:false ops))

let qcheck_bimodal_matches_model =
  QCheck.Test.make ~count:300
    ~name:"engine matches model under bimodal delays"
    (arb_script ~delay_of:bimodal_delay_of_frac bimodal_script)
    (fun ops ->
      fst (engine_vs_model ~delay_of:bimodal_delay_of_frac ~rearm:true ops))

let qcheck_rearm_matches_model =
  QCheck.Test.make ~count:300
    ~name:"engine matches model under timeout re-arming"
    (arb_script rearm_script)
    (fun ops -> fst (engine_vs_model ~rearm:true ops))

let qcheck_lanes_match_model =
  QCheck.Test.make ~count:300 ~name:"engine with lanes matches model"
    (arb_script ~delay_of:grid_delay_of_frac lane_script)
    (fun ops ->
      fst (engine_vs_model ~delay_of:grid_delay_of_frac ~rearm:false ops))

let qcheck_lanes_rearm_match_model =
  QCheck.Test.make ~count:300
    ~name:"engine with lanes matches model under timeout re-arming"
    (arb_script ~delay_of:grid_delay_of_frac lane_rearm_script)
    (fun ops ->
      fst (engine_vs_model ~delay_of:grid_delay_of_frac ~rearm:true ops))

(* The lane scripts must reach what they are for: on a fixed seed, at
   least a third of 60 re-arming lane scripts compact while lane entries
   are queued, and lane entries tie on time with plain ones. *)
let test_lane_scripts_cover () =
  let rand = Random.State.make [| 13 |] in
  let compacting = ref 0 and ties = ref 0 in
  for _ = 1 to 60 do
    let ops = QCheck.Gen.generate1 ~rand lane_rearm_script in
    let ok, m =
      engine_vs_model ~delay_of:grid_delay_of_frac ~rearm:true ops
    in
    Alcotest.(check bool) "engine agrees with model" true ok;
    if m.m_compactions > 0 then incr compacting;
    ties := !ties + m.m_lane_ties
  done;
  if !compacting < 20 then
    Alcotest.failf "only %d of 60 lane scripts compacted" !compacting;
  if !ties < 60 then
    Alcotest.failf "only %d lane-plain ties in 60 lane scripts" !ties

(* A lane's second entry keeps the stamp it took when it was pushed.  A
   and B go onto the lane for t = 1 before P is scheduled for the same
   instant, so B must fire before P, although it enters a heap only when
   A fires, after P was scheduled. *)
let test_lane_reserved_stamp () =
  let e = Engine.create () in
  let log = ref [] in
  let lane = Engine.lane e (fun x -> log := string_of_int x :: !log) in
  Engine.lane_push lane ~at:1. 1;
  Engine.lane_push lane ~at:1. 2;
  ignore (Engine.schedule e ~at:1. (fun () -> log := "P" :: !log));
  Engine.lane_push_after lane ~delay:1. 3;
  Alcotest.(check int) "pending counts every lane entry" 4 (Engine.pending e);
  Engine.run e ~until:2.;
  Alcotest.(check (list string)) "(time, seq) order" [ "1"; "2"; "P"; "3" ]
    (List.rev !log);
  Alcotest.(check int) "all fired" 4 (Engine.stats e).Engine.events_fired;
  Alcotest.(check int) "hwm" 4 (Engine.heap_depth_hwm e)

(* A push out of order, in the past or at NaN is rejected and leaves no
   trace: the lane, [pending], its high-water mark and the stats are as
   they were, and the queued entries still fire in order. *)
let test_lane_rejects () =
  let e = Engine.create () in
  let log = ref [] in
  let lane = Engine.lane e (fun x -> log := x :: !log) in
  Engine.run e ~until:1.;
  Engine.lane_push lane ~at:3. 1;
  Engine.lane_push_after lane ~delay:2. 2;
  let expect_invalid what prefix f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument msg ->
        if not (String.starts_with ~prefix msg) then
          Alcotest.failf "%s: message %S does not name %s" what msg prefix
  in
  let state () =
    let st = Engine.stats e in
    Printf.sprintf "pending=%d hwm=%d fired=%d skipped=%d" (Engine.pending e)
      (Engine.heap_depth_hwm e) st.Engine.events_fired
      st.Engine.cancels_skipped
  in
  let before = state () in
  let push = "Engine.lane_push:" and after = "Engine.lane_push_after:" in
  expect_invalid "at before the last entry" push (fun () ->
      Engine.lane_push lane ~at:2.5 9);
  expect_invalid "at before now, on an empty lane" push (fun () ->
      Engine.lane_push (Engine.lane e ignore) ~at:0.5 9);
  expect_invalid "at NaN" push (fun () -> Engine.lane_push lane ~at:Float.nan 9);
  expect_invalid "delay before the last entry" after (fun () ->
      Engine.lane_push_after lane ~delay:1.5 9);
  expect_invalid "negative delay" after (fun () ->
      Engine.lane_push_after lane ~delay:(-1.) 9);
  expect_invalid "delay NaN" after (fun () ->
      Engine.lane_push_after lane ~delay:Float.nan 9);
  Alcotest.(check string) "state unchanged" before (state ());
  Engine.run e ~until:2.;
  (* Drained, the lane takes any time from now on. *)
  Engine.run e ~until:4.;
  Engine.lane_push lane ~at:4. 3;
  Engine.run e ~until:5.;
  Alcotest.(check (list int)) "queued entries fire in order" [ 1; 2; 3 ]
    (List.rev !log)

(* The re-arm scripts must really reach the compaction path: on a fixed
   seed, at least a third of 60 generated scripts compact at least once. *)
let test_rearm_scripts_compact () =
  let rand = Random.State.make [| 7 |] in
  let compacting = ref 0 in
  for _ = 1 to 60 do
    let ops = QCheck.Gen.generate1 ~rand rearm_script in
    let ok, m = engine_vs_model ~rearm:true ops in
    Alcotest.(check bool) "engine agrees with model" true ok;
    if m.m_compactions > 0 then incr compacting
  done;
  if !compacting < 20 then
    Alcotest.failf "only %d of 60 re-arm scripts compacted" !compacting

(* The bimodal scripts must reach what they are for: on a fixed seed, at
   least a third of 60 generated scripts run a compaction that discards
   dead entries from both heaps. *)
let test_bimodal_scripts_compact_both () =
  let rand = Random.State.make [| 11 |] in
  let split = ref 0 in
  for _ = 1 to 60 do
    let ops = QCheck.Gen.generate1 ~rand bimodal_script in
    let ok, m =
      engine_vs_model ~delay_of:bimodal_delay_of_frac ~rearm:true ops
    in
    Alcotest.(check bool) "engine agrees with model" true ok;
    if m.m_split_compactions > 0 then incr split
  done;
  if !split < 20 then
    Alcotest.failf "only %d of 60 bimodal scripts compacted both heaps" !split

(* Equal times in different heaps fire in scheduling order.  A, the first
   event, has no mean to fall below and goes far; B, scheduled for the same
   instant 1 ms before it, falls below the 1 s mean and goes near.  The
   roots tie on time, and A's earlier stamp must win. *)
let test_tie_across_heaps () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~at:1.0 (fun () -> log := "A" :: !log));
  Engine.run e ~until:0.999;
  ignore (Engine.schedule e ~at:1.0 (fun () -> log := "B" :: !log));
  Engine.run e ~until:2.;
  Alcotest.(check (list string)) "scheduling order" [ "A"; "B" ] (List.rev !log)

(* One live event and a run of cancelled ones: the cancel that leaves
   [live + slack + 1] dead entries compacts them all away at once. *)
let test_cancel_compacts () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~at:10. (fun () -> fired := true));
  let skipped () = (Engine.stats e).Engine.cancels_skipped in
  for i = 1 to slack + 1 do
    Engine.cancel e (Engine.schedule e ~at:5. (fun () -> ()));
    Alcotest.(check int) (Printf.sprintf "no compaction after %d" i) 0
      (skipped ())
  done;
  Engine.cancel e (Engine.schedule e ~at:5. (fun () -> ()));
  Alcotest.(check int) "all dead entries discarded" (slack + 2) (skipped ());
  Alcotest.(check int) "live event kept" 1 (Engine.pending e);
  Engine.run e ~until:20.;
  Alcotest.(check bool) "live event fires" true !fired;
  Alcotest.(check int) "nothing left to skip" (slack + 2) (skipped ())

let qcheck_ordering =
  QCheck.Test.make ~name:"arbitrary schedules fire in nondecreasing time"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 50) (float_range 0. 100.))
    (fun times ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t -> ignore (Engine.schedule e ~at:t (fun () ->
             fired := Engine.now e :: !fired)))
        times;
      Engine.run e ~until:200.;
      let seq = List.rev !fired in
      List.length seq = List.length times
      && List.sort compare seq = seq)

let suite =
  [
    Alcotest.test_case "time ordering" `Quick test_time_ordering;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances to until" `Quick
      test_clock_advances_to_until;
    Alcotest.test_case "events after until stay queued" `Quick
      test_events_after_until_stay;
    Alcotest.test_case "schedule during run" `Quick test_schedule_during_run;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "O(1) minor words per event" `Quick
      test_run_alloc_per_event;
    Alcotest.test_case "schedule in past rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "schedule_after" `Quick test_schedule_after;
    Alcotest.test_case "run_until_idle budget" `Quick
      test_run_until_idle_budget;
    Alcotest.test_case "run_until_idle drains" `Quick
      test_run_until_idle_drains;
    Alcotest.test_case "NaN rejected without a trace" `Quick
      test_nan_rejected_cleanly;
    Alcotest.test_case "cancel compacts dead entries" `Quick
      test_cancel_compacts;
    Alcotest.test_case "re-arm scripts compact" `Quick
      test_rearm_scripts_compact;
    Alcotest.test_case "bimodal scripts compact both heaps" `Quick
      test_bimodal_scripts_compact_both;
    Alcotest.test_case "equal times across heaps fire in order" `Quick
      test_tie_across_heaps;
    QCheck_alcotest.to_alcotest qcheck_ordering;
    QCheck_alcotest.to_alcotest qcheck_matches_model;
    QCheck_alcotest.to_alcotest qcheck_rearm_matches_model;
    QCheck_alcotest.to_alcotest qcheck_bimodal_matches_model;
    Alcotest.test_case "lane head keeps its reserved stamp" `Quick
      test_lane_reserved_stamp;
    Alcotest.test_case "lane rejects out-of-order pushes" `Quick
      test_lane_rejects;
    Alcotest.test_case "lane scripts compact and tie" `Quick
      test_lane_scripts_cover;
    QCheck_alcotest.to_alcotest qcheck_lanes_match_model;
    QCheck_alcotest.to_alcotest qcheck_lanes_rearm_match_model;
  ]
