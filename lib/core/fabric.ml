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

let topology ~engine ~n_switches ~links ?(link_rate_bps = Units.link_rate_bps)
    ?(n_classes = 2) ?(buffer_packets = Units.buffer_packets) () =
  let scheds = Array.make (List.length links) None in
  let config =
    { Csz_sched.default_config with link_rate_bps; n_predicted_classes = n_classes }
  in
  let net =
    Network.create ~engine ~n_switches ~links ~rate_bps:link_rate_bps
      ~qdisc_of:(fun i ->
        let st, q =
          Csz_sched.create ~config ~pool:(Qdisc.pool ~capacity:buffer_packets) ()
        in
        scheds.(i) <- Some st;
        q)
      ()
  in
  { net; scheds = Array.map Option.get scheds }

let chain ~engine ~n_switches ?link_rate_bps ?n_classes ?buffer_packets () =
  assert (n_switches >= 2);
  topology ~engine ~n_switches
    ~links:(List.init (n_switches - 1) (fun i -> (i, i + 1)))
    ?link_rate_bps ?n_classes ?buffer_packets ()
