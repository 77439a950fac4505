open Ispn_sim
module Ring = Ispn_util.Ring

type flow_state = {
  queue : Ring.t;
  mutable deficit : int;
  mutable in_round : bool;
}

(* Standard DRR: when a flow reaches the head of the active list it earns
   one quantum and may send as long as its deficit covers the head packet;
   it then goes to the tail keeping any leftover deficit (reset only when
   it drains).  Because the qdisc interface serves one packet per dequeue,
   [current] remembers the flow whose service opportunity is still open, so
   the quantum is granted once per round — not once per packet.  (An
   earlier version re-credited on every visit, which over-served
   large-packet flows; the mixed-size fairness test pinned this down.)

   Per-flow state is a flow-indexed table grown by [Dense.fit] ([absent]
   marks unseen flows) and the queues are rings, so the per-packet path does no
   hashing and no cons-cell allocation. *)
let create ~pool ~quantum_bits () =
  if quantum_bits <= 0 then invalid_arg "Drr: quantum must be positive";
  let pa = Packet.arena () in
  let absent =
    { queue = Ring.create ~capacity:1 ();
      deficit = 0; in_round = false }
  in
  let flows = ref (Array.make 64 absent) in
  let active = Ring.create ~capacity:64 () in
  let current = ref (-1) in
  (* -1: no open opportunity *)
  let total = ref 0 in
  let flow_state flow =
    let fs = !flows in
    if flow >= Array.length fs then flows := Ispn_util.Dense.fit fs flow absent;
    let fs = !flows.(flow) in
    if fs != absent then fs
    else begin
      let fs =
        { queue = Ring.create ~capacity:64 ();
          deficit = 0; in_round = false }
      in
      !flows.(flow) <- fs;
      fs
    end
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let flow = pa.Packet.flow.(pkt) in
      let fs = flow_state flow in
      Ring.push fs.queue pkt;
      incr total;
      if (not fs.in_round) && !current <> flow then begin
        fs.in_round <- true;
        fs.deficit <- 0;
        Ring.push active flow
      end;
      true
    end
    else false
  in
  (* Serve one packet from [flow] and update its service-opportunity
     state. *)
  let serve flow fs =
    let pkt = Ring.pop_exn fs.queue in
    fs.deficit <- fs.deficit - pa.Packet.size_bits.(pkt);
    decr total;
    Qdisc.pool_release pool;
    if Ring.is_empty fs.queue then begin
      (* Drained: leave the round entirely and forfeit leftover credit. *)
      fs.deficit <- 0;
      fs.in_round <- false;
      current := -1
    end
    else if fs.deficit < pa.Packet.size_bits.(Ring.peek_exn fs.queue) then begin
      (* Opportunity exhausted: back to the tail, keep the remainder. *)
      fs.in_round <- true;
      Ring.push active flow;
      current := -1
    end;
    Some pkt
  in
  let rec dequeue ~now =
    if !current >= 0 then
      (* The open opportunity always covers the head packet (checked when
         it was opened or after the previous send). *)
      serve !current !flows.(!current)
    else if Ring.is_empty active then None
    else begin
      let flow = Ring.pop_exn active in
      let fs = !flows.(flow) in
      if Ring.is_empty fs.queue then begin
        (* Flow drained while waiting its turn. *)
        fs.in_round <- false;
        dequeue ~now
      end
      else begin
        fs.deficit <- fs.deficit + quantum_bits;
        if fs.deficit >= pa.Packet.size_bits.(Ring.peek_exn fs.queue) then begin
          fs.in_round <- false;
          current := flow;
          dequeue ~now
        end
        else begin
          (* Not yet affordable: keep saving, go to the tail. *)
          Ring.push active flow;
          dequeue ~now
        end
      end
    end
  in
  Qdisc.make ~enqueue ~dequeue ~length:(fun () -> !total) ~name:"DRR" ()
