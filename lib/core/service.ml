open Ispn_sim
module Spec = Ispn_admission.Spec
module Bounds = Ispn_admission.Bounds
module Controller = Ispn_admission.Controller

type flow_entry = { path : int list; guaranteed : bool; cls : int option }

type t = {
  fabric : Fabric.t;
  ctrls : Controller.t array;  (* one admission agent per link *)
  flows : (int, flow_entry) Hashtbl.t;
  pump : unit -> unit;
  mutable started : bool;
  mutable admitted : int;  (* real-time flows established now *)
  mutable rejected : int;  (* real-time requests refused so far *)
}

let create_on ~fabric () =
  let n_links = Fabric.n_links fabric in
  assert (n_links >= 1);
  let ctrls = Array.init n_links (fun _ -> Controller.create ()) in
  let pump =
    Fabric.feed_meters fabric
      ~meter:(fun link -> Controller.meter ctrls.(link))
      ~epoch:(fun () -> Array.iter Controller.epoch ctrls)
  in
  {
    fabric;
    ctrls;
    flows = Hashtbl.create 32;
    pump;
    started = false;
    admitted = 0;
    rejected = 0;
  }

let create ~engine ~n_switches () =
  create_on ~fabric:(Fabric.chain ~engine ~n_switches ()) ()

let start t =
  if not t.started then begin
    t.started <- true;
    t.pump ()
  end

let fabric t = t.fabric
let sched t ~link = Fabric.sched t.fabric ~link
let controller t ~link = t.ctrls.(link)

type established = {
  flow : int;
  advertised_bound : float option;
  cls : int option;
  emit : Packet.t -> unit;
}

(* Section 9's answer for the whole path, booking nothing: the refusal
   of the first link that refuses, or the grant, whose class depends on
   [hops] alone.  Every link is asked before any books, so a refusal
   leaves nothing behind. *)
let decide_path t path ~hops spec =
  List.fold_left
    (fun d link ->
      match d with
      | Controller.Rejected _ -> d
      | Controller.Admitted _ -> Controller.decide t.ctrls.(link) ~hops spec)
    (Controller.Admitted { cls = None })
    path

let request t ~flow ~ingress ~egress ?own_bucket spec ~sink =
  match Fabric.path t.fabric ~ingress ~egress with
  | None -> Error "no route between the requested switches"
  | Some [] -> Error "ingress and egress coincide"
  | Some path -> (
      let hops = List.length path in
      match decide_path t path ~hops spec with
      | Controller.Rejected reason ->
          t.rejected <- t.rejected + 1;
          Logs.info ~src:Ispn_util.Log.service (fun m ->
              m "flow %d refused: %s" flow reason);
          Error reason
      | Controller.Admitted { cls } ->
          List.iter
            (fun link ->
              ignore (Controller.request t.ctrls.(link) ~flow ~hops spec))
            path;
          Fabric.install_flow t.fabric ~flow ~ingress ~egress ~sink;
          List.iter (fun link -> Fabric.grant t.fabric ~link ~flow spec ~cls) path;
          let guaranteed, bound =
            match spec with
            | Spec.Guaranteed { clock_rate_bps } ->
                ( true,
                  Option.map
                    (fun bucket -> Bounds.pg_bound ~bucket ~clock_rate_bps ~hops ())
                    own_bucket )
            | Spec.Predicted _ ->
                (false, Some (Bounds.predicted_bound ~cls:(Option.get cls) ~hops))
            | Spec.Datagram -> (false, None)
          in
          if Spec.is_realtime spec then t.admitted <- t.admitted + 1;
          let emit = Fabric.edge t.fabric ~ingress spec in
          Hashtbl.replace t.flows flow { path; guaranteed; cls };
          Logs.info ~src:Ispn_util.Log.service (fun m ->
              m "flow %d established over links [%s]%s" flow
                (String.concat ";" (List.map string_of_int path))
                (match bound with
                | Some b -> Printf.sprintf " bound=%.3fs" b
                | None -> ""));
          Ok { flow; advertised_bound = bound; cls; emit })

let teardown t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.flows flow;
      Logs.info ~src:Ispn_util.Log.service (fun m -> m "flow %d torn down" flow);
      if entry.guaranteed || Option.is_some entry.cls then
        t.admitted <- t.admitted - 1;
      List.iter
        (fun i ->
          Controller.release t.ctrls.(i) ~flow;
          let st = Fabric.sched t.fabric ~link:i in
          if entry.guaranteed then Csz_sched.remove_guaranteed st ~flow
          else if Option.is_some entry.cls then
            Csz_sched.clear_predicted st ~flow)
        entry.path

let admitted t = t.admitted
let rejected t = t.rejected
