open Ispn_sim
module Kheap = Ispn_util.Kheap

(* Per-flow state as flat arrays indexed by flow id (hot-path discipline,
   DESIGN.md): [rate.(f)] is the reserved rate (0. = flow not yet seen)
   and [vc.(f)] the flow's virtual clock. *)
type flows = {
  mutable rate : float array;
  mutable vc : float array;
}

let create ~pool ~rate_of () =
  let pa = Packet.arena () in
  let fl = { rate = Array.make 64 0.; vc = Array.make 64 0. } in
  let heap = Kheap.create ~capacity:64 () in
  let register flow =
    let r = rate_of flow in
    if r <= 0. then
      invalid_arg (Printf.sprintf "Virtual_clock: flow %d has rate %g" flow r);
    fl.rate.(flow) <- r;
    r
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      let flow = pa.Packet.flow.(pkt) in
      if flow >= Array.length fl.rate then begin
        fl.rate <- Ispn_util.Dense.fit fl.rate flow 0.;
        fl.vc <- Ispn_util.Dense.fit fl.vc flow 0.
      end;
      let r = fl.rate.(flow) in
      let r = if r > 0. then r else register flow in
      (* [Ispn_util.Fcmp.fmax now vc], written out so [vc] is not boxed
         for a call across modules (DESIGN.md §5). *)
      let vc = fl.vc.(flow) in
      let tag =
        (if now >= vc then now else vc)
        +. (float_of_int pa.Packet.size_bits.(pkt) /. r)
      in
      fl.vc.(flow) <- tag;
      Kheap.push heap ~key:tag pkt;
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
    ~name:"VirtualClock" ()
