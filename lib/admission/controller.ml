(* A link's reserved and declared rates, kept as running sums so an
   admission decision costs the same whatever the number of live flows.
   All-float, so every update is an unboxed store (as a mutable float field
   of the mixed [link_state] each store would box).  Each sum snaps back to
   exactly 0 when the last flow it counts leaves, so rounding cannot
   accumulate across busy and idle spells. *)
type sums = {
  mutable guaranteed_bps : float;
  mutable unmeasured_bps : float;  (* declared rates not yet measured *)
}

type link_state = {
  meter : Meter.t;
  sums : sums;
  mutable n_guaranteed : int;  (* reservations counted in [guaranteed_bps] *)
  mutable n_unmeasured : int;  (* flows counted in [unmeasured_bps] *)
}

(* A real-time flow's declared rate counts on every link of its path from
   its admission until the meter window has had [meter_epochs] epochs to
   observe it, or until it leaves; [unmeasured] says whether it still
   does. *)
type flow_record = {
  request : Spec.request;
  path : int list;
  admitted_at : int;  (* epoch *)
  mutable unmeasured : bool;
}

(* The book of admitted flows: an int-keyed open-addressing table, so a
   lookup never calls the polymorphic hash and a grant allocates no bucket
   cell. *)
module Book = Ispn_util.Inttbl

type decision = Admitted of { cls : int option } | Rejected of string

type t = {
  links : link_state array;
  flows : flow_record Book.t;
  admitted_as : decision array;  (* [Admitted { cls = Some c }] per class *)
  hats : float array;  (* one link's meter estimates, read per decision *)
  mutable epoch_now : int;
  mutable rejected : int;
  mutable admissions : int;  (* cumulative grants, incl. datagram records *)
  mutable releases : int;  (* cumulative releases, incl. reset wipes *)
}

(* The share of each link left to datagram traffic, and the measurement
   window in epochs. *)
let datagram_quota = 0.1
let meter_epochs = 8

(* Every link runs at the paper's rate, and the classes are Section 7's. *)
let mu = Ispn_util.Units.link_rate_bps
let class_targets = Spec.class_targets

let create ~n_links () =
  assert (n_links > 0);
  let k = Array.length class_targets in
  {
    links =
      Array.init n_links (fun _ ->
          {
            meter = Meter.create ~epochs:meter_epochs ();
            sums = { guaranteed_bps = 0.; unmeasured_bps = 0. };
            n_guaranteed = 0;
            n_unmeasured = 0;
          });
    flows =
      Book.create
        ~dummy:
          {
            request = Spec.Datagram;
            path = [];
            admitted_at = 0;
            unmeasured = false;
          }
        ();
    admitted_as = Array.init k (fun c -> Admitted { cls = Some c });
    hats = Array.make (k + 1) 0.;
    epoch_now = 0;
    rejected = 0;
    admissions = 0;
    releases = 0;
  }

let meter t ~link = t.links.(link).meter

(* Same result as [Stdlib.max] on floats, NaN included, without the
   polymorphic compare. *)
let fmax (a : float) b = if a >= b then a else b

(* The long-term rate a request commits to: the clock rate for
   guaranteed, the bucket rate for predicted, [0.] for datagram. *)
let declared_rate = function
  | Spec.Guaranteed { clock_rate_bps } -> clock_rate_bps
  | Spec.Predicted { bucket; _ } -> bucket.Spec.rate_bps
  | Spec.Datagram -> 0.

(* Stop counting [req]'s declared rate at every link of [path]. *)
let rec drop_unmeasured t path req =
  match path with
  | [] -> ()
  | i :: rest ->
      let ls = t.links.(i) in
      ls.n_unmeasured <- ls.n_unmeasured - 1;
      ls.sums.unmeasured_bps <-
        (if ls.n_unmeasured = 0 then 0.
         else ls.sums.unmeasured_bps -. declared_rate req);
      drop_unmeasured t rest req

let epoch t =
  t.epoch_now <- t.epoch_now + 1;
  Array.iter (fun ls -> Meter.rotate ls.meter) t.links;
  (* Flows the window has now fully observed stop being double-counted
     at their declared rate. *)
  Book.iter
    (fun _ fr ->
      if fr.unmeasured && t.epoch_now - fr.admitted_at >= meter_epochs
      then begin
        fr.unmeasured <- false;
        drop_unmeasured t fr.path fr.request
      end)
    t.flows

(* Both Section 9 criteria at one link, with the meter read once.
   Criterion (1): real-time load incl. the newcomer stays under the quota
   complement; guaranteed reservations count at their full clock rate even
   when idle, since the network has promised that rate.  Criterion (2):
   the newcomer's burst [depth], entering at priority [cls] ([-1] =
   guaranteed, above every class), keeps every class at or below it
   within its target. *)
let admits t ls ~req ~cls =
  let rate = declared_rate req in
  let depth =
    match req with
    | Spec.Predicted { bucket; _ } -> bucket.Spec.depth_bits
    | Spec.Guaranteed _ | Spec.Datagram ->
        float_of_int Ispn_util.Units.packet_bits
  in
  let hats = t.hats in
  Meter.estimates_into ls.meter hats;
  let nu = hats.(0) +. (ls.sums.unmeasured_bps /. mu) in
  (rate /. mu) +. fmax nu (ls.sums.guaranteed_bps /. mu)
  < 1. -. datagram_quota
  &&
  let headroom = mu -. (nu *. mu) -. rate in
  headroom > 0.
  &&
  let k = Array.length class_targets in
  let ok = ref true and j = ref (if cls > 0 then cls else 0) in
  while !ok && !j < k do
    let slack = class_targets.(!j) -. hats.(!j + 1) in
    if not (depth < slack *. headroom) then ok := false;
    incr j
  done;
  !ok

let rec path_admits t path ~req ~cls =
  match path with
  | [] -> true
  | i :: rest -> admits t t.links.(i) ~req ~cls && path_admits t rest ~req ~cls

(* Book the newcomer at every link of [path]: its reservation (guaranteed)
   and its declared rate until the meters have seen it. *)
let rec book_path t path ~req =
  match path with
  | [] -> ()
  | i :: rest ->
      let ls = t.links.(i) in
      (match req with
      | Spec.Guaranteed { clock_rate_bps = r } ->
          ls.n_guaranteed <- ls.n_guaranteed + 1;
          ls.sums.guaranteed_bps <- ls.sums.guaranteed_bps +. r
      | Spec.Predicted _ | Spec.Datagram -> ());
      ls.n_unmeasured <- ls.n_unmeasured + 1;
      ls.sums.unmeasured_bps <- ls.sums.unmeasured_bps +. declared_rate req;
      book_path t rest ~req

let rec unreserve_path t path r =
  match path with
  | [] -> ()
  | i :: rest ->
      let ls = t.links.(i) in
      ls.n_guaranteed <- ls.n_guaranteed - 1;
      ls.sums.guaranteed_bps <-
        (if ls.n_guaranteed = 0 then 0. else ls.sums.guaranteed_bps -. r);
      unreserve_path t rest r

let choose_class ~target_delay ~hops =
  (* Cheapest class whose summed per-switch targets still meet the flow's
     end-to-end delay target; -1 if none does. *)
  let j = ref (Array.length class_targets - 1) in
  while
    !j >= 0 && not (float_of_int hops *. class_targets.(!j) <= target_delay)
  do
    decr j
  done;
  !j

(* The log calls build their closures only when the admission source
   reports at info level, so a decision with logging off allocates no
   message. *)
let logging () =
  match Logs.Src.level Ispn_util.Log.admission with
  | Some (Logs.Info | Logs.Debug) -> true
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false

let reject t ~flow reason =
  t.rejected <- t.rejected + 1;
  if logging () then
    Logs.info ~src:Ispn_util.Log.admission (fun m ->
        m "flow %d rejected: %s" flow reason);
  Rejected reason

let admit t ~flow ~path request =
  let realtime = Spec.is_realtime request in
  Book.replace t.flows flow
    { request; path; admitted_at = t.epoch_now; unmeasured = realtime };
  t.admissions <- t.admissions + 1;
  if realtime then book_path t path ~req:request

let non_empty = function
  | [] -> invalid_arg "Controller.request: empty path"
  | _ :: _ -> ()

let request t ~flow ~path request =
  if Book.mem t.flows flow then
    invalid_arg (Printf.sprintf "Controller.request: flow %d already admitted" flow);
  match request with
  | Spec.Datagram ->
      admit t ~flow ~path request;
      Admitted { cls = None }
  | Spec.Guaranteed { clock_rate_bps = r } ->
      non_empty path;
      if not (path_admits t path ~req:request ~cls:(-1)) then
        reject t ~flow "guaranteed: insufficient capacity on path"
      else begin
        admit t ~flow ~path request;
        if logging () then
          Logs.info ~src:Ispn_util.Log.admission (fun m ->
              m "flow %d admitted (guaranteed %.0f bps)" flow r);
        Admitted { cls = None }
      end
  | Spec.Predicted { target_delay; _ } ->
      non_empty path;
      let cls = choose_class ~target_delay ~hops:(List.length path) in
      if cls < 0 then
        reject t ~flow "predicted: delay target tighter than class 0"
      else if not (path_admits t path ~req:request ~cls) then
        reject t ~flow "predicted: would violate a class delay target"
      else begin
        admit t ~flow ~path request;
        if logging () then
          Logs.info ~src:Ispn_util.Log.admission (fun m ->
              m "flow %d admitted (predicted class %d)" flow cls);
        t.admitted_as.(cls)
      end

let release t ~flow =
  match Book.find t.flows flow with
  | exception Not_found -> ()
  | { request; path; unmeasured; _ } ->
      Book.remove t.flows flow;
      t.releases <- t.releases + 1;
      if unmeasured then drop_unmeasured t path request;
      (match request with
      | Spec.Guaranteed { clock_rate_bps = r } -> unreserve_path t path r
      | Spec.Predicted _ | Spec.Datagram -> ())

let mem t ~flow = Book.mem t.flows flow

let reset t =
  (* A wiped book is so many releases as far as leak accounting goes: a
     crash must not leave admissions = releases + live violated. *)
  t.releases <- t.releases + Book.length t.flows;
  Book.clear t.flows;
  Array.iter
    (fun ls ->
      ls.sums.guaranteed_bps <- 0.;
      ls.sums.unmeasured_bps <- 0.;
      ls.n_guaranteed <- 0;
      ls.n_unmeasured <- 0)
    t.links

let guaranteed_reserved_bps t ~link = t.links.(link).sums.guaranteed_bps

let admitted t =
  Book.fold
    (fun _ fr acc -> if Spec.is_realtime fr.request then acc + 1 else acc)
    t.flows 0

let rejected t = t.rejected
let admissions t = t.admissions
let releases t = t.releases
let live t = Book.length t.flows

let live_flows t =
  List.sort Int.compare (Book.fold (fun flow _ acc -> flow :: acc) t.flows [])
