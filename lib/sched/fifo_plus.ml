open Ispn_sim
module Kheap = Ispn_util.Kheap

type state = {
  avg : Ispn_util.Ewma.t;
  mutable discarded : int;
}

let avg_delay st = Ispn_util.Ewma.value st.avg
let discarded st = st.discarded

let create ?(ewma_gain = 1. /. 4096.) ?discard_late_above ?metrics
    ?(label = "0") ~pool () =
  let st = { avg = Ispn_util.Ewma.create ~gain:ewma_gain (); discarded = 0 } in
  let offsets =
    match metrics with
    | None -> None
    | Some m ->
        let p = "qdisc.fifo_plus." ^ label in
        Ispn_obs.Metrics.register_float m (p ^ ".avg_delay") (fun () ->
            Ispn_util.Ewma.value st.avg);
        Ispn_obs.Metrics.register_int m (p ^ ".discarded") (fun () ->
            st.discarded);
        Some (Ispn_obs.Metrics.dist m (p ^ ".offset"))
  in
  let pa = Packet.arena () in
  (* Ranked by expected arrival time; FIFO on ties (Kheap's stamp). *)
  let heap = Kheap.create ~capacity:64 () in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    let late =
      match discard_late_above with
      | Some threshold -> pa.Packet.offset.(pkt) > threshold
      | None -> false
    in
    if late then begin
      st.discarded <- st.discarded + 1;
      false
    end
    else if Qdisc.pool_take pool then begin
      Kheap.push heap ~key:(pa.Packet.enqueued_at.(pkt) -. pa.Packet.offset.(pkt)) pkt;
      true
    end
    else false
  in
  let dequeue ~now =
    if Kheap.is_empty heap then None
    else begin
      let pkt = Kheap.pop_exn heap in
      Qdisc.pool_release pool;
      let delay = now -. pa.Packet.enqueued_at.(pkt) in
      (* Accumulate this hop's deviation from the class average into the
         header field, then fold the observation into the average. *)
      pa.Packet.offset.(pkt) <-
        pa.Packet.offset.(pkt) +. (delay -. Ispn_util.Ewma.value st.avg);
      Ispn_util.Ewma.update st.avg delay;
      (match offsets with
      | None -> ()
      | Some d -> Ispn_util.Stats.add d pa.Packet.offset.(pkt));
      Some pkt
    end
  in
  ( st,
    Qdisc.make ~enqueue ~dequeue
      ~length:(fun () -> Kheap.length heap)
      ~name:"FIFO+" () )
