open Ispn_sim
module Units = Ispn_util.Units
module Meter = Ispn_admission.Meter
module Spec = Ispn_admission.Spec
module Tb = Ispn_traffic.Token_bucket

type t = { net : Network.t; scheds : Csz_sched.t array }

let network t = t.net
let engine t = Network.engine t.net
let n_links t = Network.n_links t.net
let n_switches t = Network.n_switches t.net
let sched t ~link = t.scheds.(link)
let link t i = Network.link t.net i
let path t ~ingress ~egress = Network.path t.net ~ingress ~egress

let install_flow t ~flow ~ingress ~egress ~sink =
  Network.install_flow t.net ~flow ~ingress ~egress ~sink

let inject t ~at_switch pkt = Network.inject t.net ~at_switch pkt

let grant t ~link ~flow spec ~cls =
  let st = t.scheds.(link) in
  match (spec, cls) with
  | Spec.Guaranteed { clock_rate_bps }, _ ->
      Csz_sched.add_guaranteed st ~flow ~clock_rate_bps
  | Spec.Predicted _, Some cls -> Csz_sched.set_predicted st ~flow ~cls
  | Spec.Predicted _, None | Spec.Datagram, _ -> ()

let edge t ~ingress spec =
  let inject pkt = inject t ~at_switch:ingress pkt in
  match spec with
  | Spec.Predicted { bucket; _ } ->
      let tb =
        Tb.create ~rate_bps:bucket.Spec.rate_bps
          ~depth_bits:bucket.Spec.depth_bits ()
      in
      Tb.admit_fn
        (Tb.policer ~engine:(engine t) ~bucket:tb ~mode:Tb.Drop ~next:inject)
  | Spec.Guaranteed _ | Spec.Datagram -> inject

(* Section 9's measurement epoch, seconds. *)
let epoch_interval = 1.0

let pump_meters t ~meter ~epoch =
  let engine = engine t in
  let last_bits = Array.make (n_links t) 0 in
  let rec pump () =
    for i = 0 to n_links t - 1 do
      let bits = Csz_sched.realtime_bits_sent t.scheds.(i) in
      Meter.note_util (meter i)
        (float_of_int (bits - last_bits.(i))
        /. (Units.link_rate_bps *. epoch_interval));
      last_bits.(i) <- bits
    done;
    epoch ();
    ignore (Engine.schedule_after engine ~delay:epoch_interval pump)
  in
  ignore (Engine.schedule_after engine ~delay:epoch_interval pump)

let feed_meters t ~meter ~epoch =
  Array.iteri
    (fun i st ->
      let m = meter i and k = Csz_sched.datagram_class st in
      Csz_sched.set_delay_hook st (fun ~cls delay ->
          if cls >= 0 && cls < k then Meter.note_delay m ~cls delay))
    t.scheds;
  fun () -> pump_meters t ~meter ~epoch

let topology ~engine ~n_switches ~links () =
  let scheds = Array.make (List.length links) None in
  let net =
    Network.create ~engine ~n_switches ~links ~rate_bps:Units.link_rate_bps
      ~qdisc_of:(fun i ->
        let st, q =
          Csz_sched.create ~pool:(Qdisc.pool ~capacity:Units.buffer_packets) ()
        in
        scheds.(i) <- Some st;
        q)
      ()
  in
  { net; scheds = Array.map Option.get scheds }

let chain ~engine ~n_switches () =
  assert (n_switches >= 2);
  topology ~engine ~n_switches
    ~links:(List.init (n_switches - 1) (fun i -> (i, i + 1)))
    ()
