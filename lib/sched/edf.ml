open Ispn_sim
module Kheap = Ispn_util.Kheap

(* Per-flow budgets as a flat array indexed by flow id; budgets are
   non-negative, so -1. marks a flow not yet seen. *)
let absent = -1.

let create ~pool ~deadline_of () =
  let pa = Packet.arena () in
  let budgets = ref (Array.make 64 absent) in
  let heap = Kheap.create ~capacity:64 () in
  let register flow =
    let d = deadline_of flow in
    if d < 0. then
      invalid_arg (Printf.sprintf "Edf: flow %d has budget %g" flow d);
    !budgets.(flow) <- d;
    d
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let flow = pa.Packet.flow.(pkt) in
      let b = !budgets in
      if flow >= Array.length b then begin
        let n = Int.max (flow + 1) (2 * Array.length b) in
        let bigger = Array.make n absent in
        Array.blit b 0 bigger 0 (Array.length b);
        budgets := bigger
      end;
      let d = !budgets.(flow) in
      let d = if d >= 0. then d else register flow in
      Kheap.push heap ~key:(now +. d) pkt;
      true
    end
    else false
  in
  let dequeue ~now:_ =
    if Kheap.is_empty heap then None
    else begin
      let pkt = Kheap.pop_exn heap in
      Qdisc.pool_release pool;
      Some pkt
    end
  in
  Qdisc.make ~enqueue ~dequeue
    ~length:(fun () -> Kheap.length heap)
    ~name:"EDF" ()
