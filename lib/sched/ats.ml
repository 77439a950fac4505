open Ispn_sim
module Ring = Ispn_util.Ring
module Tb = Ispn_traffic.Token_bucket

(* Asynchronous Traffic Shaping (IEEE 802.1Qcr): per-flow token-bucket
   regulators interleaved in front of a strict-priority core.  Each class
   is one FIFO; only the head packet of a class consults its flow's
   bucket (interleaved regulation: a held head blocks the whole class,
   which is what keeps the regulator FIFO per class and — per the ATS
   "shaping-for-free" argument — adds no worst-case delay beyond the
   upstream bound already accumulated).  Dequeue scans classes in
   priority order and serves the first eligible head; when every
   backlogged class's head is still earning tokens the link idles until
   the earliest head becomes conformant (waker latch, non-work-
   conserving).

   Each flow's regulator is an edge token bucket
   ([Ispn_traffic.Token_bucket]), as the ATS analysis defines it: the
   head's conformance is that bucket's refill, check and debit. *)
let create ~engine ~pool ~n_classes ~class_of ~shaper_of () =
  if n_classes <= 0 then invalid_arg "Ats: need at least one class";
  let pa = Packet.arena () in
  let queues =
    Array.init n_classes (fun _ ->
        Ring.create ~capacity:64 ())
  in
  let total = ref 0 in
  (* Per-flow buckets in a dense flow-indexed table, made the first time
     the flow is seen; [unseen] marks the empty slots. *)
  let unseen = Tb.create ~rate_bps:1. ~depth_bits:1. () in
  let buckets = ref (Array.make 64 unseen) in
  let ensure flow =
    if flow >= Array.length !buckets then
      buckets := Ispn_util.Dense.fit !buckets flow unseen;
    if !buckets.(flow) == unseen then begin
      let r, b = shaper_of flow in
      if not (r > 0. && b > 0.) then
        invalid_arg "Ats: shaper rate and burst must be positive";
      !buckets.(flow) <- Tb.create ~rate_bps:r ~depth_bits:b ()
    end
  in
  let waker = ref (fun () -> ()) in
  let wake_armed = ref false in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let flow = pa.Packet.flow.(pkt) in
      ensure flow;
      Ring.push queues.(class_of flow) pkt;
      incr total;
      true
    end
    else false
  in
  let dequeue ~now =
    let rec pick i =
      if i >= n_classes then None
      else if Ring.is_empty queues.(i) then pick (i + 1)
      else begin
        let pkt = Ring.peek_exn queues.(i) in
        if
          Tb.conforms !buckets.(pa.Packet.flow.(pkt)) ~now
            ~bits:pa.Packet.size_bits.(pkt)
        then begin
          ignore (Ring.pop_exn queues.(i));
          decr total;
          Qdisc.pool_release pool;
          Some pkt
        end
        else pick (i + 1)
      end
    in
    let r = pick 0 in
    if Option.is_none r && !total > 0 then begin
      (* Every backlogged class's head is earning tokens (they were all
         refilled to [now] by the scan): wake the link at the earliest
         head conformance time. *)
      if not !wake_armed then begin
        let at = ref infinity in
        for i = 0 to n_classes - 1 do
          if not (Ring.is_empty queues.(i)) then begin
            let pkt = Ring.peek_exn queues.(i) in
            let wait =
              Tb.wait_s !buckets.(pa.Packet.flow.(pkt))
                ~bits:pa.Packet.size_bits.(pkt)
            in
            (* [Ispn_util.Fcmp.fmin !at (now +. Fcmp.fmax wait 1e-9)],
               written out.  The 1 ns floor keeps the wake time strictly
               after [now] even when the remaining deficit underflows the
               float grid — otherwise the re-armed waker can stall on one
               timestamp forever. *)
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
    ~name:"ATS" ()
