open Ispn_sim
module Ring = Ispn_util.Ring

type flow_state = {
  queue : Ring.t;
  weight : int;
  mutable credit : int;
  mutable in_round : bool;
}

(* Packet-counted weighted round robin: DRR's active-list machinery with a
   quantum of [weight_of flow] packets and every packet costing one
   credit.  A flow reaching the head of the active list earns its weight
   once per round ([current] holds the open service opportunity, exactly
   as in [Drr]), sends up to that many packets, then rotates to the tail;
   leftover credit is forfeited when the flow drains.  Per-flow state is
   the usual dense flow-indexed array with an [absent] sentinel. *)
let create ~pool ?(weight_of = fun (_ : int) -> 1) () =
  let pa = Packet.arena () in
  let absent =
    { queue = Ring.create ~capacity:1 ();
      weight = 0; credit = 0; in_round = false }
  in
  let flows = ref (Array.make 64 absent) in
  let active = Ring.create ~capacity:64 () in
  let current = ref (-1) in
  let total = ref 0 in
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
      let w = weight_of flow in
      if w <= 0 then invalid_arg "Wrr: weights must be positive";
      let fs =
        { queue = Ring.create ~capacity:64 ();
          weight = w; credit = 0; in_round = false }
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
        fs.credit <- 0;
        Ring.push active flow
      end;
      true
    end
    else false
  in
  let serve flow fs =
    let pkt = Ring.pop_exn fs.queue in
    fs.credit <- fs.credit - 1;
    decr total;
    Qdisc.pool_release pool;
    if Ring.is_empty fs.queue then begin
      fs.credit <- 0;
      fs.in_round <- false;
      current := -1
    end
    else if fs.credit < 1 then begin
      fs.in_round <- true;
      Ring.push active flow;
      current := -1
    end;
    Some pkt
  in
  let rec dequeue ~now =
    if !current >= 0 then serve !current !flows.(!current)
    else if Ring.is_empty active then None
    else begin
      let flow = Ring.pop_exn active in
      let fs = !flows.(flow) in
      if Ring.is_empty fs.queue then begin
        fs.in_round <- false;
        dequeue ~now
      end
      else begin
        (* Weights are >= 1 packet, so the opportunity always opens. *)
        fs.credit <- fs.credit + fs.weight;
        fs.in_round <- false;
        current := flow;
        dequeue ~now
      end
    end
  in
  Qdisc.make ~enqueue ~dequeue ~length:(fun () -> !total) ~name:"WRR" ()
