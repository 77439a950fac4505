open Ispn_sim
module Ring = Ispn_util.Ring

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

   The bucket arithmetic mirrors [Ispn_traffic.Token_bucket] exactly
   (refill capped at depth, conformance slack 1e-9 bits) so the
   differential reference model and the policer stay bit-identical. *)
let create ~engine ~pool ~n_classes ~class_of ~shaper_of () =
  if n_classes <= 0 then invalid_arg "Ats: need at least one class";
  let pa = Packet.arena () in
  let queues =
    Array.init n_classes (fun _ ->
        Ring.create ~capacity:64 ())
  in
  let total = ref 0 in
  (* Per-flow regulator state: dense flow-indexed parallel arrays grown by
     doubling; [seen] marks initialised slots. *)
  let seen = ref (Array.make 64 false) in
  let tokens = ref (Array.make 64 0.) in
  let last = ref (Array.make 64 0.) in
  let rate = ref (Array.make 64 0.) in
  let depth = ref (Array.make 64 0.) in
  let ensure flow =
    if flow >= Array.length !seen then begin
      let n = Stdlib.max (flow + 1) (2 * Array.length !seen) in
      let grow a zero =
        let bigger = Array.make n zero in
        Array.blit !a 0 bigger 0 (Array.length !a);
        a := bigger
      in
      grow seen false; grow tokens 0.; grow last 0.; grow rate 0.;
      grow depth 0.
    end;
    if not !seen.(flow) then begin
      let r, b = shaper_of flow in
      if not (r > 0. && b > 0.) then
        invalid_arg "Ats: shaper rate and burst must be positive";
      !seen.(flow) <- true;
      !rate.(flow) <- r;
      !depth.(flow) <- b;
      !tokens.(flow) <- b;  (* buckets start full, as in Token_bucket *)
      !last.(flow) <- 0.
    end
  in
  let refill flow ~now =
    let tk = !tokens and ls = !last in
    if now > ls.(flow) then begin
      tk.(flow) <-
        Float.min !depth.(flow)
          (tk.(flow) +. ((now -. ls.(flow)) *. !rate.(flow)));
      ls.(flow) <- now
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
        let flow = pa.Packet.flow.(pkt) in
        refill flow ~now;
        let need = float pa.Packet.size_bits.(pkt) in
        if !tokens.(flow) >= need -. 1e-9 then begin
          ignore (Ring.pop_exn queues.(i));
          !tokens.(flow) <- !tokens.(flow) -. need;
          decr total;
          Qdisc.pool_release pool;
          Some pkt
        end
        else pick (i + 1)
      end
    in
    let r = pick 0 in
    if r = None && !total > 0 then begin
      (* Every backlogged class's head is earning tokens (they were all
         refilled to [now] by the scan): wake the link at the earliest
         head conformance time. *)
      if not !wake_armed then begin
        let at = ref infinity in
        for i = 0 to n_classes - 1 do
          if not (Ring.is_empty queues.(i)) then begin
            let pkt = Ring.peek_exn queues.(i) in
            let flow = pa.Packet.flow.(pkt) in
            let need = float pa.Packet.size_bits.(pkt) in
            (* The 1 ns floor keeps the wake time strictly after [now]
               even when the remaining deficit underflows the float grid
               — otherwise the re-armed waker can stall on one timestamp
               forever. *)
            at :=
              Float.min !at
                (now
                +. Float.max ((need -. !tokens.(flow)) /. !rate.(flow)) 1e-9)
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
