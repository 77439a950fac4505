open Ispn_sim
module Ring = Ispn_util.Ring

type cls = {
  queue : Ring.t;
  slope : float;  (* idleSlope, bit/s *)
  mutable credit : float;  (* bits *)
  mutable last : float;  (* sim time of the last credit update *)
}

(* IEEE 802.1Q Credit-Based Shaper: strict priority across classes (index
   0 highest), each class gated by a credit that accrues at idleSlope
   while the class is backlogged or in deficit, is debited by the frame
   size on each send, and is reset to zero when the class drains with
   credit left over (consume-or-lose).  A class's head is eligible only
   while credit >= 0, so the class's long-run output rate is capped at
   its idleSlope even when it alone is backlogged — the non-work-
   conserving property the bake-off's work-conservation audit exempts.

   Credit updates are lazy: [touch] folds the elapsed time into the
   credit at each enqueue (that class only) and at each dequeue (all
   classes, in priority order).  The differential reference model in
   [test/test_differential.ml] mirrors these touch points exactly so
   both sides compute identical floats. *)
let create ~engine ~pool ~idle_slopes_bps ~class_of () =
  let n_classes = Array.length idle_slopes_bps in
  if n_classes = 0 then invalid_arg "Cbs: need at least one class";
  Array.iter
    (fun s -> if not (s > 0.) then invalid_arg "Cbs: idle slopes must be positive")
    idle_slopes_bps;
  let pa = Packet.arena () in
  let classes =
    Array.map
      (fun slope ->
        { queue = Ring.create ~capacity:64 ();
          slope; credit = 0.; last = 0. })
      idle_slopes_bps
  in
  let total = ref 0 in
  let waker = ref (fun () -> ()) in
  let wake_armed = ref false in
  let touch c ~now =
    if now > c.last then begin
      if not (Ring.is_empty c.queue) then
        c.credit <- c.credit +. (c.slope *. (now -. c.last))
      else if c.credit < 0. then begin
        (* Idle recovery stops at zero: an idle class banks no credit.
           [Ispn_util.Fcmp.fmin 0. recovered], written out. *)
        let recovered = c.credit +. (c.slope *. (now -. c.last)) in
        c.credit <- (if 0. <= recovered then 0. else recovered)
      end;
      c.last <- now
    end
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let c = classes.(class_of pa.Packet.flow.(pkt)) in
      touch c ~now;
      Ring.push c.queue pkt;
      incr total;
      true
    end
    else false
  in
  let dequeue ~now =
    for i = 0 to n_classes - 1 do
      touch classes.(i) ~now
    done;
    let rec pick i =
      if i >= n_classes then None
      else begin
        let c = classes.(i) in
        (* -1e-6 bits of slack: [now +. d] rounds on the waker path, so a
           recovered credit can land ~1e-8 bits shy of zero; without the
           slack the re-armed waker can stall on one timestamp forever. *)
        if (not (Ring.is_empty c.queue)) && c.credit >= -1e-6 then begin
          let pkt = Ring.pop_exn c.queue in
          c.credit <- c.credit -. float pa.Packet.size_bits.(pkt);
          if Ring.is_empty c.queue && c.credit > 0. then c.credit <- 0.;
          decr total;
          Qdisc.pool_release pool;
          Some pkt
        end
        else pick (i + 1)
      end
    in
    let r = pick 0 in
    if Option.is_none r && !total > 0 then begin
      (* Backlogged but every backlogged class is in credit deficit: call
         the link back when the first one recovers (same waker latch as
         Stop-and-Go). *)
      if not !wake_armed then begin
        let at = ref infinity in
        for i = 0 to n_classes - 1 do
          let c = classes.(i) in
          if not (Ring.is_empty c.queue) then begin
            (* [Ispn_util.Fcmp.fmin !at (now +. Fcmp.fmax wait 1e-9)],
               written out.  The 1 ns floor keeps the wake time strictly
               after [now] even when the remaining deficit underflows the
               float grid. *)
            let wait = -.c.credit /. c.slope in
            let wake = now +. (if wait >= 1e-9 then wait else 1e-9) in
            if not (!at <= wake) then at := wake
          end
        done;
        wake_armed := true;
        ignore
          (Engine.schedule engine ~at:!at (fun () ->
               wake_armed := false;
               !waker ()))
      end
    end;
    r
  in
  Qdisc.make
    ~attach_waker:(fun w -> waker := w)
    ~enqueue ~dequeue
    ~length:(fun () -> !total)
    ~name:"CBS" ()
