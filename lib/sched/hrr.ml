open Ispn_sim
module Ring = Ispn_util.Ring

type flow_state = {
  queue : Ring.t;
  slots : int;  (* allocation per frame *)
  mutable credit : int;  (* slots left in the current frame *)
}

let create ~engine ~frame ~slots_of ~pool () =
  assert (frame > 0.);
  let pa = Packet.arena () in
  let absent =
    { queue = Ring.create ~capacity:1 ();
      slots = 0; credit = 0 }
  in
  (* Dense flow-indexed state ([absent] marks unseen flows); [order] is
     the round-robin visiting ring. *)
  let flows = ref (Array.make 64 absent) in
  let order = Ring.create ~capacity:64 () in
  let total = ref 0 in
  let waker = ref (fun () -> ()) in
  let frame_start = ref 0. in
  let boundary_armed = ref false in
  let flow_state flow =
    let fs = !flows in
    if flow >= Array.length fs then begin
      let n = Int.max (flow + 1) (2 * Array.length fs) in
      let bigger = Array.make n absent in
      Array.blit fs 0 bigger 0 (Array.length fs);
      flows := bigger
    end;
    let fs = !flows.(flow) in
    if fs != absent then fs
    else begin
      let slots = slots_of flow in
      if slots <= 0 then
        invalid_arg (Printf.sprintf "Hrr: flow %d has %d slots" flow slots);
      let fs =
        { queue = Ring.create ~capacity:64 ();
          slots; credit = slots }
      in
      !flows.(flow) <- fs;
      Ring.push order flow;
      fs
    end
  in
  let rec arm_boundary ~now =
    if not !boundary_armed then begin
      boundary_armed := true;
      let next = !frame_start +. frame in
      (* After an idle gap [frame_start] is stale; re-anchor to the fixed
         frame grid (the boundary ceiling of [now]), not [now +. frame] —
         frame phase must not drift with arrival times. *)
      let next =
        if next <= now then
          (Float.of_int (int_of_float (now /. frame)) +. 1.) *. frame
        else next
      in
      ignore
        (Engine.schedule engine ~at:next (fun () ->
             boundary_armed := false;
             frame_start := next;
             Array.iter
               (fun fs -> if fs != absent then fs.credit <- fs.slots)
               !flows;
             if !total > 0 then begin
               (* More frames will be needed while backlog remains. *)
               arm_boundary ~now:next;
               !waker ()
             end))
    end
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let fs = flow_state pa.Packet.flow.(pkt) in
      Ring.push fs.queue pkt;
      incr total;
      arm_boundary ~now;
      true
    end
    else false
  in
  let dequeue ~now:_ =
    if !total = 0 then None
    else begin
      (* Visit each flow at most once looking for queued work + credit. *)
      let n = Ring.length order in
      let rec visit k =
        if k >= n then None
        else begin
          let flow = Ring.pop_exn order in
          Ring.push order flow;
          let fs = !flows.(flow) in
          if fs.credit > 0 && not (Ring.is_empty fs.queue) then begin
            fs.credit <- fs.credit - 1;
            decr total;
            Qdisc.pool_release pool;
            Some (Ring.pop_exn fs.queue)
          end
          else visit (k + 1)
        end
      in
      visit 0
      (* [None] with work queued means every backlogged flow exhausted its
         frame credit; the armed frame boundary will wake the link. *)
    end
  in
  Qdisc.make
    ~attach_waker:(fun w -> waker := w)
    ~enqueue ~dequeue
    ~length:(fun () -> !total)
    ~name:"HRR" ()
