open Ispn_sim

let create ~pool () =
  let pa = Packet.arena () in
  let q = Ispn_util.Ring.create ~capacity:64 () in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      Ispn_util.Ring.push q pkt;
      true
    end
    else false
  in
  let dequeue ~now:_ =
    if Ispn_util.Ring.is_empty q then None
    else begin
      let pkt = Ispn_util.Ring.pop_exn q in
      Qdisc.pool_release pool;
      Some pkt
    end
  in
  Qdisc.make ~enqueue ~dequeue
    ~length:(fun () -> Ispn_util.Ring.length q)
    ~name:"FIFO" ()
