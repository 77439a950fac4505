module Vtime = Ispn_sched.Vtime

let make () = Vtime.create ~link_rate_bps:1e6

let close = Alcotest.check (Alcotest.float 1e-9)

let test_idle_clock_frozen () =
  let vt = make () in
  Vtime.advance vt ~now:5.;
  close "V stays 0 while idle" 0. (Vtime.v vt)

let test_single_flow_full_rate () =
  (* One active flow with weight = link rate: V advances at real time. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:2.;
  close "V = t" 2. (Vtime.v vt)

let test_partial_weight_speeds_v () =
  (* Active weight at half the link: V runs at twice real time (the active
     flow receives service at twice its weight's worth). *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:5e5;
  Vtime.advance vt ~now:1.;
  close "V = 2t" 2. (Vtime.v vt)

let test_weight_changes_integrate_piecewise () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  (* Second flow joins: dV/dt halves. *)
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:3.;
  close "1 + 2 * 0.5" 2. (Vtime.v vt)

let test_busy_period_reset () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  Vtime.set_finish vt ~slot:3 5.;
  close "tag read back in its busy period" 5. (Vtime.start vt ~slot:3);
  Vtime.flow_deactivated vt ~now:1. ~weight:1e6;
  close "V back to zero" 0. (Vtime.v vt);
  close "tag gone: start = V" (Vtime.v vt) (Vtime.start vt ~slot:3);
  (* A later busy period starts fresh. *)
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:10.;
  close "fresh integration" 9. (Vtime.v vt)

let test_no_reset_while_others_active () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:4e5;
  Vtime.flow_activated vt ~weight:6e5;
  Vtime.set_finish vt ~slot:2 7.;
  Vtime.flow_deactivated vt ~now:1. ~weight:4e5;
  close "tag survives" 7. (Vtime.start vt ~slot:2);
  close "weight shrank" 6e5 (Vtime.active_weight vt)

let test_adjust_active () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  Vtime.adjust_active vt ~now:1. ~delta:(-5e5);
  Vtime.advance vt ~now:2.;
  (* First second at rate 1, second second at rate 2. *)
  close "piecewise with adjustment" 3. (Vtime.v vt)

let test_renegotiate_to_zero () =
  (* Regression: renegotiating the last active flow's weight down to zero
     used to leave [active_weight = 0.] with the busy period still "open",
     so the next [advance] divided by zero.  It must end the busy period
     exactly like [flow_deactivated] does. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:1.;
  Vtime.set_finish vt ~slot:0 4.;
  Vtime.adjust_active vt ~now:1. ~delta:(-1e6);
  close "V back to zero" 0. (Vtime.v vt);
  close "tag gone: start = V" (Vtime.v vt) (Vtime.start vt ~slot:0);
  close "weight cleared" 0. (Vtime.active_weight vt);
  (* The clock is idle and a later busy period starts fresh. *)
  Vtime.advance vt ~now:3.;
  close "idle after renegotiation" 0. (Vtime.v vt);
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:4.;
  close "fresh busy period" 1. (Vtime.v vt)

let test_adjust_epsilon_residue () =
  (* Float renegotiation arithmetic can leave a sub-epsilon residue instead
     of an exact zero; that residue must also end the busy period rather
     than surviving as a near-zero weight that sends dV/dt to infinity. *)
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.set_finish vt ~slot:70 2.;
  Vtime.adjust_active vt ~now:0.5 ~delta:(-1e6 +. 1e-9);
  close "residue treated as zero: tag gone" (Vtime.v vt)
    (Vtime.start vt ~slot:70);
  close "weight cleared" 0. (Vtime.active_weight vt);
  Vtime.advance vt ~now:5.;
  close "idle after clamp" 0. (Vtime.v vt)

let test_advance_monotone_guard () =
  let vt = make () in
  Vtime.flow_activated vt ~weight:1e6;
  Vtime.advance vt ~now:2.;
  (* A stale timestamp must not rewind the integration. *)
  Vtime.advance vt ~now:1.;
  close "no rewind" 2. (Vtime.v vt)

(* Property: the tags behave exactly as if every busy-period end zero-filled
   a full slot array (the old [on_reset] contract), for random activity over
   slots up to 5,000.  The model repeats [Vtime]'s float arithmetic op for
   op, so the comparison is bit-exact. *)
type model = {
  mutable mv : float;
  mutable last : float;
  mutable aw : float;
  mutable count : int;
  mutable weights : float list;  (* weights of the active flows *)
  mtags : float array;
}

type op =
  | Activate of float
  | Deactivate
  | Adjust of float  (* fraction of the active weight to add; may be < -1 *)
  | Set_finish of int * float
  | Advance of float

let n_slots = 5001

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun w -> Activate (float_of_int w)) (int_range 1 1_000_000));
        (3, return Deactivate);
        (1, map (fun f -> Adjust f) (float_range (-1.2) 1.));
        ( 4,
          map2
            (fun slot tag -> Set_finish (slot, tag))
            (oneof [ int_range 0 70; int_range 0 (n_slots - 1) ])
            (oneof [ float_range 0. 10.; return 0. ]) );
        (3, map (fun dt -> Advance dt) (float_range 0. 0.01));
      ])

let show_op = function
  | Activate w -> Printf.sprintf "activate %g" w
  | Deactivate -> "deactivate"
  | Adjust f -> Printf.sprintf "adjust %g" f
  | Set_finish (s, x) -> Printf.sprintf "set_finish %d %h" s x
  | Advance dt -> Printf.sprintf "advance +%h" dt

let model_advance m ~now =
  if now > m.last then begin
    if m.aw > 0. then m.mv <- m.mv +. ((now -. m.last) *. 1e6 /. m.aw);
    m.last <- now
  end

let model_reset m =
  m.mv <- 0.;
  m.aw <- 0.;
  Array.fill m.mtags 0 n_slots 0.

let prop_tags_match_zero_fill_model =
  QCheck.Test.make ~count:200 ~name:"tags match a zero-filling model"
    QCheck.(
      make ~print:Print.(list show_op) Gen.(list_size (int_range 1 300) gen_op))
    (fun ops ->
      let vt = make () in
      let m =
        {
          mv = 0.;
          last = 0.;
          aw = 0.;
          count = 0;
          weights = [];
          mtags = Array.make n_slots 0.;
        }
      in
      let now = ref 0. in
      let set_slots = ref [] in
      let same_bits a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      let same_start slot =
        let want = if m.mv >= m.mtags.(slot) then m.mv else m.mtags.(slot) in
        same_bits want (Vtime.start vt ~slot)
      in
      let step op =
        (match op with
        | Activate weight ->
            Vtime.flow_activated vt ~weight;
            m.aw <- m.aw +. weight;
            m.count <- m.count + 1;
            m.weights <- weight :: m.weights
        | Deactivate -> (
            match m.weights with
            | [] -> ()
            | weight :: rest ->
                Vtime.flow_deactivated vt ~now:!now ~weight;
                model_advance m ~now:!now;
                m.aw <- m.aw -. weight;
                m.count <- m.count - 1;
                m.weights <- rest;
                if m.count = 0 then model_reset m)
        | Adjust f ->
            if m.count > 0 then begin
              let delta = f *. Vtime.active_weight vt in
              Vtime.adjust_active vt ~now:!now ~delta;
              model_advance m ~now:!now;
              let w = m.aw +. delta in
              if w > 1e-6 then m.aw <- w else model_reset m
            end
        | Set_finish (slot, tag) ->
            Vtime.set_finish vt ~slot tag;
            m.mtags.(slot) <- tag;
            set_slots := slot :: !set_slots
        | Advance dt ->
            now := !now +. dt;
            Vtime.advance vt ~now:!now;
            model_advance m ~now:!now);
        same_bits m.mv (Vtime.v vt)
        && match op with
           | Set_finish (slot, _) -> same_start slot
           | Deactivate | Adjust _ -> List.for_all same_start !set_slots
           | Activate _ | Advance _ -> true
      in
      List.for_all step ops
      &&
      let ok = ref true in
      for slot = 0 to n_slots - 1 do
        if not (same_start slot) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "idle clock frozen" `Quick test_idle_clock_frozen;
    Alcotest.test_case "single flow full rate" `Quick
      test_single_flow_full_rate;
    Alcotest.test_case "partial weight speeds V" `Quick
      test_partial_weight_speeds_v;
    Alcotest.test_case "piecewise integration" `Quick
      test_weight_changes_integrate_piecewise;
    Alcotest.test_case "busy period reset" `Quick test_busy_period_reset;
    Alcotest.test_case "no reset while others active" `Quick
      test_no_reset_while_others_active;
    Alcotest.test_case "adjust active" `Quick test_adjust_active;
    Alcotest.test_case "renegotiate to zero (regression)" `Quick
      test_renegotiate_to_zero;
    Alcotest.test_case "epsilon residue ends busy period" `Quick
      test_adjust_epsilon_residue;
    Alcotest.test_case "advance monotone guard" `Quick
      test_advance_monotone_guard;
    QCheck_alcotest.to_alcotest prop_tags_match_zero_fill_model;
  ]
