open Ispn_sim
module Spec = Ispn_admission.Spec
module Bounds = Ispn_admission.Bounds
module Controller = Ispn_admission.Controller
module Meter = Ispn_admission.Meter
module Units = Ispn_util.Units

type flow_entry = { path : int list; guaranteed : bool; cls : int option }

type t = {
  fabric : Fabric.t;
  ctrl : Controller.t;
  class_targets : float array;
  epoch_interval : float;
  flows : (int, flow_entry) Hashtbl.t;
  mutable started : bool;
}

let default_targets = [| 0.008; 0.064 |]

let create_on ~fabric ?(class_targets = default_targets)
    ?(epoch_interval = 1.0) () =
  let n_links = Fabric.n_links fabric in
  assert (n_links >= 1);
  let k = Array.length class_targets in
  (* Every link's scheduler must agree on the class count. *)
  for i = 0 to n_links - 1 do
    if Csz_sched.datagram_class (Fabric.sched fabric ~link:i) <> k then
      invalid_arg "Service.create_on: class_targets/fabric class mismatch"
  done;
  let link_rate_bps = Units.link_rate_bps in
  let ctrl =
    Controller.create ~n_links ~mu_bps:link_rate_bps ~class_targets ()
  in
  (* Predicted-class queueing delays flow straight into the link meters. *)
  for i = 0 to n_links - 1 do
    let meter = Controller.meter ctrl ~link:i in
    Csz_sched.set_delay_hook (Fabric.sched fabric ~link:i) (fun ~cls delay ->
        if cls >= 0 && cls < k then Meter.note_delay meter ~cls delay)
  done;
  {
    fabric;
    ctrl;
    class_targets;
    epoch_interval;
    flows = Hashtbl.create 32;
    started = false;
  }

let create ~engine ~n_switches ?(class_targets = default_targets)
    ?(epoch_interval = 1.0) () =
  let fabric =
    Fabric.chain ~engine ~n_switches ~n_classes:(Array.length class_targets) ()
  in
  create_on ~fabric ~class_targets ~epoch_interval ()

let start t =
  if not t.started then begin
    t.started <- true;
    Fabric.pump_meters t.fabric ~epoch_interval:t.epoch_interval
      ~meter:(fun link -> Controller.meter t.ctrl ~link)
      ~epoch:(fun () -> Controller.epoch t.ctrl)
  end

let fabric t = t.fabric
let sched t ~link = Fabric.sched t.fabric ~link

type established = {
  flow : int;
  advertised_bound : float option;
  cls : int option;
  emit : Packet.t -> unit;
}

let request t ~flow ~ingress ~egress ?own_bucket spec ~sink =
  match Fabric.path t.fabric ~ingress ~egress with
  | None -> Error "no route between the requested switches"
  | Some [] -> Error "ingress and egress coincide"
  | Some path -> (
      let hops = List.length path in
      match Controller.request t.ctrl ~flow ~path spec with
      | Controller.Rejected reason -> Error reason
      | Controller.Admitted { cls } ->
          Fabric.install_flow t.fabric ~flow ~ingress ~egress ~sink;
          let inject pkt = Fabric.inject t.fabric ~at_switch:ingress pkt in
          let entry, bound, emit =
            match spec with
            | Spec.Guaranteed { clock_rate_bps } ->
                List.iter
                  (fun i ->
                    Csz_sched.add_guaranteed
                      (Fabric.sched t.fabric ~link:i)
                      ~flow ~clock_rate_bps)
                  path;
                let bound =
                  Option.map
                    (fun bucket -> Bounds.pg_bound ~bucket ~clock_rate_bps ~hops ())
                    own_bucket
                in
                ({ path; guaranteed = true; cls = None }, bound, inject)
            | Spec.Predicted { bucket; _ } ->
                let cls = Option.get cls in
                List.iter
                  (fun i ->
                    Csz_sched.set_predicted (Fabric.sched t.fabric ~link:i)
                      ~flow ~cls)
                  path;
                let tb =
                  Ispn_traffic.Token_bucket.create
                    ~rate_bps:bucket.Spec.rate_bps
                    ~depth_bits:bucket.Spec.depth_bits ()
                in
                let policer =
                  Ispn_traffic.Token_bucket.policer
                    ~engine:(Fabric.engine t.fabric) ~bucket:tb
                    ~mode:Ispn_traffic.Token_bucket.Drop ~next:inject
                in
                let bound =
                  Some
                    (Bounds.predicted_bound ~class_targets:t.class_targets
                       ~cls ~hops)
                in
                ( { path; guaranteed = false; cls = Some cls },
                  bound,
                  Ispn_traffic.Token_bucket.admit_fn policer )
            | Spec.Datagram ->
                ({ path; guaranteed = false; cls = None }, None, inject)
          in
          Hashtbl.replace t.flows flow entry;
          Logs.info ~src:Ispn_util.Log.service (fun m ->
              m "flow %d established over links [%s]%s" flow
                (String.concat ";" (List.map string_of_int path))
                (match bound with
                | Some b -> Printf.sprintf " bound=%.3fs" b
                | None -> ""));
          Ok { flow; advertised_bound = bound; cls = entry.cls; emit })

let teardown t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.flows flow;
      Logs.info ~src:Ispn_util.Log.service (fun m -> m "flow %d torn down" flow);
      Controller.release t.ctrl ~flow;
      List.iter
        (fun i ->
          let st = Fabric.sched t.fabric ~link:i in
          if entry.guaranteed then Csz_sched.remove_guaranteed st ~flow
          else if entry.cls <> None then Csz_sched.clear_predicted st ~flow)
        entry.path

let admitted t = Controller.admitted t.ctrl
let rejected t = Controller.rejected t.ctrl
