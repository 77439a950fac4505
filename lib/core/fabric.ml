open Ispn_sim
module Units = Ispn_util.Units

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

(* Section 9's measurement epoch, seconds. *)
let epoch_interval = 1.0

let pump_meters t ~meter ~epoch =
  let engine = engine t in
  let last_bits = Array.make (n_links t) 0 in
  let rec pump () =
    for i = 0 to n_links t - 1 do
      let bits = Csz_sched.realtime_bits_sent t.scheds.(i) in
      Ispn_admission.Meter.note_util (meter i)
        (float_of_int (bits - last_bits.(i))
        /. (Units.link_rate_bps *. epoch_interval));
      last_bits.(i) <- bits
    done;
    epoch ();
    ignore (Engine.schedule_after engine ~delay:epoch_interval pump)
  in
  ignore (Engine.schedule_after engine ~delay:epoch_interval pump)

let topology ~engine ~n_switches ~links ?(n_classes = 2) () =
  let scheds = Array.make (List.length links) None in
  let config =
    { Csz_sched.default_config with n_predicted_classes = n_classes }
  in
  let net =
    Network.create ~engine ~n_switches ~links ~rate_bps:Units.link_rate_bps
      ~qdisc_of:(fun i ->
        let st, q =
          Csz_sched.create ~config
            ~pool:(Qdisc.pool ~capacity:Units.buffer_packets) ()
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
