open Ispn_sim
module Kheap = Ispn_util.Kheap
module Ewma = Ispn_util.Ewma

type state = {
  avg : Ewma.t;
  late_above : float option;
  offsets : Ispn_util.Stats.t option;
  mutable discarded : int;
}

let avg_delay st = Ewma.value st.avg
let discarded st = st.discarded

let state ~ewma_gain ~discard_late_above ~offsets =
  {
    avg = Ewma.create ~gain:ewma_gain ();
    late_above = discard_late_above;
    offsets;
    discarded = 0;
  }

let late st (pa : Packet.arena) pkt =
  match st.late_above with
  | Some threshold when pa.Packet.offset.(pkt) > threshold ->
      st.discarded <- st.discarded + 1;
      true
  | _ -> false

(* Ranked by expected arrival time; FIFO on ties (Kheap's stamp). *)
let push heap (pa : Packet.arena) pkt =
  Kheap.push heap
    ~key:(pa.Packet.enqueued_at.(pkt) -. pa.Packet.offset.(pkt))
    pkt

(* Accumulate this hop's deviation from the class average into the header
   field, then fold the observation into the average.  The delay is taken
   from [now], which the caller already holds boxed, so the call boxes no
   float of its own. *)
let depart st (pa : Packet.arena) pkt ~now =
  let delay = now -. pa.Packet.enqueued_at.(pkt) in
  pa.Packet.offset.(pkt) <-
    pa.Packet.offset.(pkt) +. (delay -. Ewma.value st.avg);
  Ewma.update st.avg delay;
  match st.offsets with
  | None -> ()
  | Some d -> Ispn_util.Stats.add d pa.Packet.offset.(pkt)

let create ?(ewma_gain = 1. /. 4096.) ?discard_late_above ?metrics
    ?(label = "0") ~pool () =
  let p = "qdisc.fifo_plus." ^ label in
  let offsets =
    Option.map (fun m -> Ispn_obs.Metrics.dist m (p ^ ".offset")) metrics
  in
  let st = state ~ewma_gain ~discard_late_above ~offsets in
  Option.iter
    (fun m ->
      Ispn_obs.Metrics.register_float m (p ^ ".avg_delay") (fun () ->
          avg_delay st);
      Ispn_obs.Metrics.register_int m (p ^ ".discarded") (fun () ->
          st.discarded))
    metrics;
  let pa = Packet.arena () in
  let heap = Kheap.create ~capacity:64 () in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if late st pa pkt then false
    else if Qdisc.pool_take pool then begin
      push heap pa pkt;
      true
    end
    else false
  in
  let dequeue ~now =
    if Kheap.is_empty heap then None
    else begin
      let pkt = Kheap.pop_exn heap in
      Qdisc.pool_release pool;
      depart st pa pkt ~now;
      Some pkt
    end
  in
  ( st,
    Qdisc.make ~enqueue ~dequeue
      ~length:(fun () -> Kheap.length heap)
      ~name:"FIFO+" () )
