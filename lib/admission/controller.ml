(* A link's reserved and declared rates, kept as running sums so an
   admission decision costs the same whatever the number of live flows.
   All-float, so every update is an unboxed store (as a mutable float field
   of the mixed controller record each store would box).  Each sum snaps
   back to exactly 0 when the last flow it counts leaves, so rounding
   cannot accumulate across busy and idle spells. *)
type sums = {
  mutable guaranteed_bps : float;
  mutable unmeasured_bps : float;  (* declared rates not yet measured *)
}

(* A real-time flow's declared rate counts on the link from its admission
   until the meter window has had [meter_epochs] epochs to observe it, or
   until it leaves; [unmeasured] says whether it still does. *)
type flow_record = {
  request : Spec.request;
  admitted_at : int;  (* epoch *)
  mutable unmeasured : bool;
}

(* The book of admitted flows: an int-keyed open-addressing table, so a
   lookup never calls the polymorphic hash and a grant allocates no bucket
   cell. *)
module Book = Ispn_util.Inttbl

type decision = Admitted of { cls : int option } | Rejected of string

type t = {
  meter : Meter.t;
  sums : sums;
  mutable n_guaranteed : int;  (* reservations counted in [guaranteed_bps] *)
  mutable n_unmeasured : int;  (* flows counted in [unmeasured_bps] *)
  flows : flow_record Book.t;
  admitted_as : decision array;  (* [Admitted { cls = Some c }] per class *)
  hats : float array;  (* the meter's estimates, read per decision *)
  mutable epoch_now : int;
  mutable admissions : int;  (* cumulative grants, incl. datagram records *)
  mutable releases : int;  (* cumulative releases, incl. reset wipes *)
}

(* The share of the link left to datagram traffic, and the measurement
   window in epochs. *)
let datagram_quota = 0.1
let meter_epochs = 8

(* The link runs at the paper's rate, and the classes are Section 7's. *)
let mu = Ispn_util.Units.link_rate_bps
let class_targets = Spec.class_targets

let create () =
  let k = Array.length class_targets in
  {
    meter = Meter.create ~epochs:meter_epochs ();
    sums = { guaranteed_bps = 0.; unmeasured_bps = 0. };
    n_guaranteed = 0;
    n_unmeasured = 0;
    flows =
      Book.create
        ~dummy:{ request = Spec.Datagram; admitted_at = 0; unmeasured = false }
        ();
    admitted_as = Array.init k (fun c -> Admitted { cls = Some c });
    hats = Array.make (k + 1) 0.;
    epoch_now = 0;
    admissions = 0;
    releases = 0;
  }

let meter t = t.meter

(* The long-term rate a request commits to: the clock rate for
   guaranteed, the bucket rate for predicted, [0.] for datagram. *)
let declared_rate = function
  | Spec.Guaranteed { clock_rate_bps } -> clock_rate_bps
  | Spec.Predicted { bucket; _ } -> bucket.Spec.rate_bps
  | Spec.Datagram -> 0.

(* Stop counting [req]'s declared rate. *)
let drop_unmeasured t req =
  t.n_unmeasured <- t.n_unmeasured - 1;
  t.sums.unmeasured_bps <-
    (if t.n_unmeasured = 0 then 0.
     else t.sums.unmeasured_bps -. declared_rate req)

let epoch t =
  t.epoch_now <- t.epoch_now + 1;
  Meter.rotate t.meter;
  (* Flows the window has now fully observed stop being double-counted
     at their declared rate. *)
  Book.iter
    (fun _ fr ->
      if fr.unmeasured && t.epoch_now - fr.admitted_at >= meter_epochs
      then begin
        fr.unmeasured <- false;
        drop_unmeasured t fr.request
      end)
    t.flows

(* Both Section 9 criteria, with the meter read once.  Criterion (1):
   real-time load incl. the newcomer stays under the quota complement;
   guaranteed reservations count at their full clock rate even when idle,
   since the network has promised that rate.  Criterion (2): the
   newcomer's burst [depth], entering at priority [cls] ([-1] =
   guaranteed, above every class), keeps every class at or below it
   within its target. *)
let admits t ~req ~cls =
  let rate = declared_rate req in
  let depth =
    match req with
    | Spec.Predicted { bucket; _ } -> bucket.Spec.depth_bits
    | Spec.Guaranteed _ | Spec.Datagram ->
        float_of_int Ispn_util.Units.packet_bits
  in
  let hats = t.hats in
  Meter.estimates_into t.meter hats;
  let nu = hats.(0) +. (t.sums.unmeasured_bps /. mu) in
  let g = t.sums.guaranteed_bps /. mu in
  (* [Ispn_util.Fcmp.fmax nu g], written out: a call across modules would
     box both floats on every admission test. *)
  (rate /. mu) +. (if nu >= g then nu else g)
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

let decide t ~hops request =
  if hops < 1 then invalid_arg "Controller: hops must be at least 1";
  match request with
  | Spec.Datagram -> Admitted { cls = None }
  | Spec.Guaranteed _ ->
      if admits t ~req:request ~cls:(-1) then Admitted { cls = None }
      else Rejected "guaranteed: insufficient capacity on path"
  | Spec.Predicted { target_delay; _ } ->
      let cls = choose_class ~target_delay ~hops in
      if cls < 0 then Rejected "predicted: delay target tighter than class 0"
      else if not (admits t ~req:request ~cls) then
        Rejected "predicted: would violate a class delay target"
      else t.admitted_as.(cls)

(* The log calls build their closures only when the admission source
   reports at info level, so a decision with logging off allocates no
   message. *)
let logging () =
  match Logs.Src.level Ispn_util.Log.admission with
  | Some (Logs.Info | Logs.Debug) -> true
  | Some (Logs.App | Logs.Error | Logs.Warning) | None -> false

(* Book the newcomer: its reservation (guaranteed) and its declared rate
   until the meter has seen it. *)
let admit t ~flow request =
  let realtime = Spec.is_realtime request in
  Book.replace t.flows flow
    { request; admitted_at = t.epoch_now; unmeasured = realtime };
  t.admissions <- t.admissions + 1;
  if realtime then begin
    (match request with
    | Spec.Guaranteed { clock_rate_bps = r } ->
        t.n_guaranteed <- t.n_guaranteed + 1;
        t.sums.guaranteed_bps <- t.sums.guaranteed_bps +. r
    | Spec.Predicted _ | Spec.Datagram -> ());
    t.n_unmeasured <- t.n_unmeasured + 1;
    t.sums.unmeasured_bps <- t.sums.unmeasured_bps +. declared_rate request
  end

let request t ~flow ~hops request =
  if Book.mem t.flows flow then
    invalid_arg (Printf.sprintf "Controller.request: flow %d already admitted" flow);
  let d = decide t ~hops request in
  (match d with
  | Rejected reason ->
      if logging () then
        Logs.info ~src:Ispn_util.Log.admission (fun m ->
            m "flow %d rejected: %s" flow reason)
  | Admitted { cls } -> (
      admit t ~flow request;
      if logging () then
        match (request, cls) with
        | Spec.Guaranteed { clock_rate_bps = r }, _ ->
            Logs.info ~src:Ispn_util.Log.admission (fun m ->
                m "flow %d admitted (guaranteed %.0f bps)" flow r)
        | Spec.Predicted _, Some c ->
            Logs.info ~src:Ispn_util.Log.admission (fun m ->
                m "flow %d admitted (predicted class %d)" flow c)
        | (Spec.Predicted _ | Spec.Datagram), _ -> ()));
  d

let release t ~flow =
  match Book.find t.flows flow with
  | exception Not_found -> ()
  | { request; unmeasured; _ } -> (
      Book.remove t.flows flow;
      t.releases <- t.releases + 1;
      if unmeasured then drop_unmeasured t request;
      match request with
      | Spec.Guaranteed { clock_rate_bps = r } ->
          t.n_guaranteed <- t.n_guaranteed - 1;
          t.sums.guaranteed_bps <-
            (if t.n_guaranteed = 0 then 0. else t.sums.guaranteed_bps -. r)
      | Spec.Predicted _ | Spec.Datagram -> ())

let mem t ~flow = Book.mem t.flows flow

let reset t =
  (* A wiped book is so many releases as far as leak accounting goes: a
     crash must not leave admissions = releases + live violated. *)
  t.releases <- t.releases + Book.length t.flows;
  Book.clear t.flows;
  t.sums.guaranteed_bps <- 0.;
  t.sums.unmeasured_bps <- 0.;
  t.n_guaranteed <- 0;
  t.n_unmeasured <- 0

let guaranteed_reserved_bps t = t.sums.guaranteed_bps
let admissions t = t.admissions
let releases t = t.releases
let live t = Book.length t.flows

let live_flows t =
  List.sort Int.compare (Book.fold (fun flow _ acc -> flow :: acc) t.flows [])
