(* The float state lives in its own all-float record so [advance] — run on
   every enqueue and dequeue of WFQ and CSZ — updates it in place without
   boxing (a mixed record would allocate a float box per store). *)
type state = {
  mutable v : float;
  mutable last_update : float;
  mutable active_weight : float;
}

(* Finish tags are a dense float array indexed by slot, and [stack] lists
   the slots written in the current busy period, so ending a busy period
   costs O(slots tagged in it), not O(largest slot): on a lightly loaded
   link a busy period ends on almost every packet, while flow ids can run
   into the thousands.  A slot is on [stack] exactly when its tag is
   non-zero; see [set_finish]. *)
type t = {
  link_rate_bps : float;
  s : state;
  mutable active_count : int;
  mutable tags : float array;
  mutable stack : int array;
  mutable depth : int;  (* entries in use on [stack] *)
}

let create ~link_rate_bps =
  assert (link_rate_bps > 0.);
  {
    link_rate_bps;
    s = { v = 0.; last_update = 0.; active_weight = 0. };
    active_count = 0;
    tags = Array.make 64 0.;
    stack = Array.make 4 0;
    depth = 0;
  }

let advance t ~now =
  let s = t.s in
  if now > s.last_update then begin
    if s.active_weight > 0. then
      s.v <- s.v +. ((now -. s.last_update) *. t.link_rate_bps /. s.active_weight);
    s.last_update <- now
  end

let v t = t.s.v

(* [Ispn_util.Fcmp.fmax v tag], written out: a call across modules would
   box both floats on every WFQ and CSZ enqueue (DESIGN.md §5). *)
let start t ~slot =
  let v = t.s.v in
  if slot < Array.length t.tags then
    let tag = t.tags.(slot) in
    if v >= tag then v else tag
  else v

let push t slot =
  if t.depth = Array.length t.stack then begin
    let bigger = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 bigger 0 t.depth;
    t.stack <- bigger
  end;
  t.stack.(t.depth) <- slot;
  t.depth <- t.depth + 1

(* A zero tag means "not on the stack": the first non-zero store of a busy
   period pushes the slot.  Zero stored over a live tag is kept as -1,
   which still reads as V (V >= 0) but keeps the slot listed, so no slot
   is ever pushed twice and the stack stays bounded by the slot count. *)
let set_finish t ~slot tag =
  if slot >= Array.length t.tags then
    t.tags <- Ispn_util.Dense.fit t.tags slot 0.;
  if t.tags.(slot) = 0. then begin
    if tag <> 0. then push t slot;
    t.tags.(slot) <- tag
  end
  else t.tags.(slot) <- (if tag = 0. then -1. else tag)

(* End of the busy period: restart the virtual clock and forget the tags
   stored since the last one. *)
let end_busy_period t =
  t.s.v <- 0.;
  t.s.active_weight <- 0.;
  for i = 0 to t.depth - 1 do
    t.tags.(t.stack.(i)) <- 0.
  done;
  t.depth <- 0

let flow_activated t ~weight =
  assert (weight > 0.);
  t.s.active_weight <- t.s.active_weight +. weight;
  t.active_count <- t.active_count + 1

let flow_deactivated t ~now ~weight =
  advance t ~now;
  t.s.active_weight <- t.s.active_weight -. weight;
  t.active_count <- t.active_count - 1;
  assert (t.active_count >= 0);
  if t.active_count = 0 then end_busy_period t

(* Weights are clock rates in bits/s (>= 1 in every configuration), so
   anything this small is float drift, not a real remaining reservation. *)
let weight_epsilon = 1e-6

let adjust_active t ~now ~delta =
  advance t ~now;
  let w = t.s.active_weight +. delta in
  if w > weight_epsilon then t.s.active_weight <- w
  else
    (* Renegotiation removed the last active weight (or drift left a
       sub-epsilon residue): end the busy period exactly as
       [flow_deactivated] does, but keep [active_count] — the flows
       themselves are still queued and will deactivate normally. *)
    end_busy_period t

let active_weight t = t.s.active_weight
