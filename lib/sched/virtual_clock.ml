open Ispn_sim
module Kheap = Ispn_util.Kheap

(* Per-flow state as flat arrays indexed by flow id (hot-path discipline,
   DESIGN.md): [rate.(f)] is the reserved rate (0. = flow not yet seen)
   and [vc.(f)] the flow's virtual clock. *)
type flows = {
  mutable rate : float array;
  mutable vc : float array;
}

let fmax (a : float) b = if a >= b then a else b

let grow fl n =
  let old = Array.length fl.rate in
  let n = Stdlib.max n (2 * old) in
  let rate = Array.make n 0. in
  let vc = Array.make n 0. in
  Array.blit fl.rate 0 rate 0 old;
  Array.blit fl.vc 0 vc 0 old;
  fl.rate <- rate;
  fl.vc <- vc

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
      if flow >= Array.length fl.rate then grow fl (flow + 1);
      let r = fl.rate.(flow) in
      let r = if r > 0. then r else register flow in
      let tag =
        fmax now fl.vc.(flow) +. (float_of_int pa.Packet.size_bits.(pkt) /. r)
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
