open Ispn_sim

let create ~engine ~frame ~pool () =
  assert (frame > 0.);
  (* Eligibility is FIFO in arrival order, so a flat ring suffices; a
     packet's eligibility time is recomputed from its (exact) arrival
     stamp rather than stored alongside it. *)
  let pa = Packet.arena () in
  let q = Ispn_util.Ring.create ~capacity:64 () in
  let waker = ref (fun () -> ()) in
  let wake_armed = ref false in
  let next_boundary t = (Float.of_int (int_of_float (t /. frame)) +. 1.) *. frame in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      Ispn_util.Ring.push q pkt;
      true
    end
    else false
  in
  let dequeue ~now =
    if Ispn_util.Ring.is_empty q then None
    else begin
      let pkt = Ispn_util.Ring.peek_exn q in
      let eligible = next_boundary pa.Packet.enqueued_at.(pkt) in
      if eligible <= now +. 1e-12 then begin
        ignore (Ispn_util.Ring.pop_exn q);
        Qdisc.pool_release pool;
        Some pkt
      end
      else begin
        (* Head not yet eligible: hold the line idle and call the link
           back at the frame boundary.  The latch keeps at most one
           wakeup pending however often the link polls an ineligible
           head; the event re-opens it, so a still-ineligible head
           (e.g. the wakeup raced a fresher arrival) arms the next
           boundary on the following poll. *)
        if not !wake_armed then begin
          wake_armed := true;
          ignore
            (Engine.schedule engine ~at:eligible (fun () ->
                 wake_armed := false;
                 !waker ()))
        end;
        None
      end
    end
  in
  Qdisc.make
    ~attach_waker:(fun w -> waker := w)
    ~enqueue ~dequeue
    ~length:(fun () -> Ispn_util.Ring.length q)
    ~name:"Stop-and-Go" ()
