open Ispn_sim
module Kheap = Ispn_util.Kheap

(* Hot-path discipline (DESIGN.md): per-flow state is structure-of-arrays
   indexed by the small-int flow id — [weight.(f)], [qlen.(f)], and the
   finish tags in [Vtime] under slot [f] — so an enqueue touches flat
   float/int arrays (no Hashtbl hashing, no boxed stores), and the ranked
   queue is a [Kheap] keyed by the virtual finish tag (no boxed entry, no
   polymorphic compare). *)
type flows = {
  mutable weight : float array;  (* 0. marks a flow not yet seen *)
  mutable qlen : int array;
  mutable seen : int;  (* flows ever registered, for the metric *)
}

let grow fl n =
  let old = Array.length fl.weight in
  let n = Int.max n (2 * old) in
  let weight = Array.make n 0. in
  let qlen = Array.make n 0 in
  Array.blit fl.weight 0 weight 0 old;
  Array.blit fl.qlen 0 qlen 0 old;
  fl.weight <- weight;
  fl.qlen <- qlen

let create ?metrics ?(label = "0") ~pool ~link_rate_bps ~weight_of () =
  let fl =
    {
      weight = Array.make 64 0.;
      qlen = Array.make 64 0;
      seen = 0;
    }
  in
  let pa = Packet.arena () in
  let heap = Kheap.create ~capacity:64 () in
  let vt = Vtime.create ~link_rate_bps in
  (match metrics with
  | None -> ()
  | Some m ->
      let p = "qdisc.wfq." ^ label in
      Ispn_obs.Metrics.register_float m (p ^ ".vtime") (fun () -> Vtime.v vt);
      Ispn_obs.Metrics.register_int m (p ^ ".flows") (fun () -> fl.seen));
  (* Cold path: consult [weight_of] the first time a flow appears. *)
  let register flow =
    let w = weight_of flow in
    if w <= 0. then
      invalid_arg (Printf.sprintf "Wfq: flow %d has weight %g" flow w);
    fl.weight.(flow) <- w;
    fl.seen <- fl.seen + 1;
    w
  in
  let enqueue ~now pkt =
    pa.Packet.enqueued_at.(pkt) <- now;
    if Qdisc.pool_take pool then begin
      Vtime.advance vt ~now;
      let flow = pa.Packet.flow.(pkt) in
      if flow >= Array.length fl.weight then grow fl (flow + 1);
      let w = fl.weight.(flow) in
      let w = if w > 0. then w else register flow in
      if fl.qlen.(flow) = 0 then Vtime.flow_activated vt ~weight:w;
      (* [opaque_identity] boxes the tag once for both calls below;
         bound as a plain float it would be boxed at each. *)
      let tag =
        Sys.opaque_identity
          (Vtime.start vt ~slot:flow
          +. (float_of_int pa.Packet.size_bits.(pkt) /. w))
      in
      Vtime.set_finish vt ~slot:flow tag;
      fl.qlen.(flow) <- fl.qlen.(flow) + 1;
      Kheap.push heap ~key:tag pkt;
      true
    end
    else false
  in
  let dequeue ~now =
    if Kheap.is_empty heap then None
    else begin
      let pkt = Kheap.pop_exn heap in
      Qdisc.pool_release pool;
      let flow = pa.Packet.flow.(pkt) in
      let q = fl.qlen.(flow) - 1 in
      fl.qlen.(flow) <- q;
      if q = 0 then Vtime.flow_deactivated vt ~now ~weight:fl.weight.(flow);
      Some pkt
    end
  in
  Qdisc.make ~enqueue ~dequeue
    ~length:(fun () -> Kheap.length heap)
    ~name:"WFQ" ()

let create_equal ?metrics ?label ~pool ~link_rate_bps () =
  create ?metrics ?label ~pool ~link_rate_bps ~weight_of:(fun _ -> 1.) ()
