(* A link's reserved and declared rates, kept as running sums so an
   admission decision costs the same whatever the number of live flows.
   All-float, so every update is an unboxed store (as a mutable float field
   of the mixed [link_state] each store would box).  Each sum snaps back to
   exactly 0 when the last flow it counts leaves, so rounding cannot
   accumulate across busy and idle spells. *)
type sums = {
  mutable guaranteed_bps : float;
  mutable unmeasured_bps : float;  (* the rates in [unmeasured] *)
}

type link_state = {
  meter : Meter.t;
  sums : sums;
  mutable n_guaranteed : int;  (* reservations counted in [guaranteed_bps] *)
  (* Declared rates of flows too recently admitted for the meter to have
     seen them; keyed by flow, value (rate, admit_epoch). *)
  unmeasured : (int, float * int) Hashtbl.t;
}

type flow_record = {
  request : Spec.request;
  path : int list;
  cls : int option;
}

type t = {
  mu : float;
  class_targets : float array;
  datagram_quota : float;
  meter_epochs : int;
  links : link_state array;
  flows : (int, flow_record) Hashtbl.t;
  mutable epoch_now : int;
  mutable rejected : int;
  mutable admissions : int;  (* cumulative grants, incl. datagram records *)
  mutable releases : int;  (* cumulative releases, incl. reset wipes *)
}

type decision = Admitted of { cls : int option } | Rejected of string

let create ~n_links ~mu_bps ~class_targets ?(datagram_quota = 0.1)
    ?(meter_epochs = 8) () =
  assert (n_links > 0 && mu_bps > 0.);
  let k = Array.length class_targets in
  assert (k > 0);
  for i = 1 to k - 1 do
    if class_targets.(i) <= class_targets.(i - 1) then
      invalid_arg "Controller.create: class targets must be increasing"
  done;
  {
    mu = mu_bps;
    class_targets;
    datagram_quota;
    meter_epochs;
    links =
      Array.init n_links (fun _ ->
          {
            meter = Meter.create ~n_classes:k ~epochs:meter_epochs ();
            sums = { guaranteed_bps = 0.; unmeasured_bps = 0. };
            n_guaranteed = 0;
            unmeasured = Hashtbl.create 8;
          });
    flows = Hashtbl.create 32;
    epoch_now = 0;
    rejected = 0;
    admissions = 0;
    releases = 0;
  }

let n_classes t = Array.length t.class_targets
let meter t ~link = t.links.(link).meter

let add_unmeasured ls ~flow ~rate ~epoch =
  let s = ls.sums in
  (match Hashtbl.find_opt ls.unmeasured flow with
  | Some (old, _) -> s.unmeasured_bps <- s.unmeasured_bps -. old
  | None -> ());
  Hashtbl.replace ls.unmeasured flow (rate, epoch);
  s.unmeasured_bps <- s.unmeasured_bps +. rate

let remove_unmeasured ls flow =
  match Hashtbl.find_opt ls.unmeasured flow with
  | None -> ()
  | Some (rate, _) ->
      Hashtbl.remove ls.unmeasured flow;
      ls.sums.unmeasured_bps <-
        (if Hashtbl.length ls.unmeasured = 0 then 0.
         else ls.sums.unmeasured_bps -. rate)

let reserve ls r =
  ls.n_guaranteed <- ls.n_guaranteed + 1;
  ls.sums.guaranteed_bps <- ls.sums.guaranteed_bps +. r

let unreserve ls r =
  ls.n_guaranteed <- ls.n_guaranteed - 1;
  ls.sums.guaranteed_bps <-
    (if ls.n_guaranteed = 0 then 0. else ls.sums.guaranteed_bps -. r)

let epoch t =
  t.epoch_now <- t.epoch_now + 1;
  Array.iter
    (fun ls ->
      Meter.rotate ls.meter;
      (* Flows the window has now fully observed stop being double-counted
         at their declared rate. *)
      let stale =
        Hashtbl.fold
          (fun flow (_, admitted_at) acc ->
            if t.epoch_now - admitted_at >= t.meter_epochs then flow :: acc
            else acc)
          ls.unmeasured []
      in
      List.iter (remove_unmeasured ls) stale)
    t.links

let nu_hat t ls = Meter.util_hat ls.meter +. (ls.sums.unmeasured_bps /. t.mu)

(* Criterion (1): real-time load incl. the newcomer stays under the quota
   complement.  Guaranteed reservations are counted at their full clock rate
   even when idle, since the network has promised that rate. *)
let quota_ok t ls ~rate =
  let nu = Stdlib.max (nu_hat t ls) (ls.sums.guaranteed_bps /. t.mu) in
  (rate /. t.mu) +. nu < 1. -. t.datagram_quota

(* Criterion (2) at one link for a flow of burst [b] entering at priority
   [cls] ([-1] = guaranteed, above every class). *)
let delay_ok t ls ~rate ~depth ~cls =
  let nu = nu_hat t ls in
  let headroom = t.mu -. (nu *. t.mu) -. rate in
  let k = Array.length t.class_targets in
  let rec check j =
    if j >= k then true
    else
      let slack = t.class_targets.(j) -. Meter.delay_hat ls.meter ~cls:j in
      if depth < slack *. headroom then check (j + 1) else false
  in
  headroom > 0. && check (Stdlib.max cls 0)

let choose_class t ~target_delay ~hops =
  (* Cheapest class whose summed per-switch targets still meet the flow's
     end-to-end delay target. *)
  let k = Array.length t.class_targets in
  let rec best j =
    if j < 0 then None
    else if float_of_int hops *. t.class_targets.(j) <= target_delay then
      Some j
    else best (j - 1)
  in
  best (k - 1)

let reject t ~flow reason =
  t.rejected <- t.rejected + 1;
  Logs.info ~src:Ispn_util.Log.admission (fun m ->
      m "flow %d rejected: %s" flow reason);
  Rejected reason

(* The message is formatted inside the [Logs] closure, so an admission
   with the log source off pays for no formatting. *)
let log_admit ~flow what =
  Logs.info ~src:Ispn_util.Log.admission (fun m ->
      m "flow %d admitted (%t)" flow what)

let request t ~flow ~path request =
  if Hashtbl.mem t.flows flow then
    invalid_arg (Printf.sprintf "Controller.request: flow %d already admitted" flow);
  match request with
  | Spec.Datagram ->
      Hashtbl.replace t.flows flow { request; path; cls = None };
      t.admissions <- t.admissions + 1;
      Admitted { cls = None }
  | Spec.Guaranteed { clock_rate_bps = r } -> (
      if path = [] then invalid_arg "Controller.request: empty path";
      let links = List.map (fun i -> t.links.(i)) path in
      let depth = float_of_int Ispn_util.Units.packet_bits in
      match
        List.find_opt
          (fun ls ->
            not (quota_ok t ls ~rate:r && delay_ok t ls ~rate:r ~depth ~cls:(-1)))
          links
      with
      | Some _ -> reject t ~flow "guaranteed: insufficient capacity on path"
      | None ->
          List.iter
            (fun ls ->
              reserve ls r;
              add_unmeasured ls ~flow ~rate:r ~epoch:t.epoch_now)
            links;
          Hashtbl.replace t.flows flow { request; path; cls = None };
          t.admissions <- t.admissions + 1;
          log_admit ~flow (fun ppf ->
              Format.fprintf ppf "guaranteed %.0f bps" r);
          Admitted { cls = None })
  | Spec.Predicted { bucket; target_delay; _ } -> (
      if path = [] then invalid_arg "Controller.request: empty path";
      let hops = List.length path in
      match choose_class t ~target_delay ~hops with
      | None -> reject t ~flow "predicted: delay target tighter than class 0"
      | Some cls ->
          let r = bucket.Spec.rate_bps and b = bucket.Spec.depth_bits in
          let links = List.map (fun i -> t.links.(i)) path in
          let ok ls = quota_ok t ls ~rate:r && delay_ok t ls ~rate:r ~depth:b ~cls in
          if List.for_all ok links then begin
            List.iter
              (fun ls -> add_unmeasured ls ~flow ~rate:r ~epoch:t.epoch_now)
              links;
            Hashtbl.replace t.flows flow { request; path; cls = Some cls };
            t.admissions <- t.admissions + 1;
            log_admit ~flow (fun ppf ->
                Format.fprintf ppf "predicted class %d" cls);
            Admitted { cls = Some cls }
          end
          else reject t ~flow "predicted: would violate a class delay target")

let release t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> ()
  | Some { request; path; _ } ->
      Hashtbl.remove t.flows flow;
      t.releases <- t.releases + 1;
      List.iter
        (fun i ->
          let ls = t.links.(i) in
          remove_unmeasured ls flow;
          match request with
          | Spec.Guaranteed { clock_rate_bps = r } -> unreserve ls r
          | Spec.Predicted _ | Spec.Datagram -> ())
        path

let mem t ~flow = Hashtbl.mem t.flows flow

let reset t =
  (* A wiped book is so many releases as far as leak accounting goes: a
     crash must not leave admissions = releases + live violated. *)
  t.releases <- t.releases + Hashtbl.length t.flows;
  Hashtbl.reset t.flows;
  Array.iter
    (fun ls ->
      ls.sums.guaranteed_bps <- 0.;
      ls.sums.unmeasured_bps <- 0.;
      ls.n_guaranteed <- 0;
      Hashtbl.reset ls.unmeasured)
    t.links

let guaranteed_reserved_bps t ~link = t.links.(link).sums.guaranteed_bps

let admitted t =
  Hashtbl.fold
    (fun _ fr acc -> if Spec.is_realtime fr.request then acc + 1 else acc)
    t.flows 0

let rejected t = t.rejected
let admissions t = t.admissions
let releases t = t.releases
let live t = Hashtbl.length t.flows

let live_flows t =
  List.sort compare (Hashtbl.fold (fun flow _ acc -> flow :: acc) t.flows [])
