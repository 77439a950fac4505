open Ispn_sim
module Spec = Ispn_admission.Spec
module Bounds = Ispn_admission.Bounds
module Controller = Ispn_admission.Controller
module Units = Ispn_util.Units

let control_packet_bits = 500

(* One hop of the reverse (confirmation) path, seconds. *)
let reverse_hop_delay = 1e-3
let ctrl_flow_base = 900_000

type established = {
  flow : int;
  cls : int option;
  advertised_bound : float option;
  setup_time : float;
  emit : Packet.t -> unit;
}

type level = Guaranteed | Predicted | Datagram

let level_name = function
  | Guaranteed -> "guaranteed"
  | Predicted -> "predicted"
  | Datagram -> "datagram"

let level_of = function
  | Spec.Guaranteed _ -> Guaranteed
  | Spec.Predicted _ -> Predicted
  | Spec.Datagram -> Datagram

(* The grant a flow holds at one hop of its path, as an int per hop: the
   predicted class granted there, [no_class] for a grant without one
   (guaranteed or datagram), [no_grant] for a hop holding nothing. *)
let no_grant = -2
let no_class = -1
let code_of_cls = function None -> no_class | Some c -> c

(* What a setup's timer does when it fires.  At most one is armed at a
   time: the retransmission timeout while a message is on the wire, then
   the reverse trip that carries the confirmation or the refusal back to
   the ingress. *)
type phase = Awaiting_reply | Confirming | Refusing of string

(* The control message of a session that is on the wire, if any.  A
   session never has two: a setup retransmission invalidates the copy it
   replaces, a refresh pass supersedes the previous pass's leg, a departure
   cancels the refresh leg before its teardown starts, and each kind's legs
   travel one hop at a time. *)
type msg = No_msg | Setup_msg | Refresh_msg | Teardown_msg

(* What only a setup in progress needs, dropped when it resolves.
   [attempts] counts retransmissions of the message on the wire (reset
   when a hop answers); [wake] is the callback of every timer the setup
   arms, built once; [timer] is the retransmission timer while a setup
   message is on the wire. *)
type setup = {
  egress : int;
  local : Spec.request;  (* the per-hop request every agent evaluates *)
  sink : Packet.t -> unit;
  on_result : (established, string) result -> unit;
  started_at : float;
  mutable bound_acc : float;  (* summed class targets along the path *)
  mutable attempts : int;
  mutable phase : phase;
  mutable wake : unit -> unit;
  mutable timer : Engine.handle option;
}

(* One record per session, from its setup to the last leg of its
   teardown.  [granted] holds the grant codes of the hops reserved so far
   — exactly what a rollback must undo.  Once established ([setup =
   None]) the session keeps everything a post-crash re-setup needs: the
   path, its grant codes, the original request and the rung of the
   degradation ladder currently in force, plus the soft-state machinery.
   [refresh_serial] names its latest entry on the refresh lane. *)
type session = {
  flow_id : int;
  ingress : int;
  path : int array;
  granted : int array;
  requested : Spec.request;
  own_bucket : Spec.bucket option;
  mutable setup : setup option;
  mutable current : Spec.request;
  mutable refresh_serial : int;
  (* The message on the wire: its kind, the hop it is bound for, and the
     token it travels under (-1 = none). *)
  mutable msg : msg;
  mutable msg_hop : int;
  mutable msg_token : int;
  (* The current refresh pass: when it started, and whether a hop had
     forgotten the flow, so that the pass ends in a full re-assert. *)
  mutable pass_started : float;
  mutable needs_reassert : bool;
}

module Tokens = Ispn_util.Inttbl

type t = {
  fab : Fabric.t;
  eng : Engine.t;
  scheds : Csz_sched.t array;  (* per link *)
  n_switches : int;
  (* [paths.(ingress * n_switches + egress)]: the links from [ingress] to
     [egress] (empty when there is no route), built on the pair's first
     setup. *)
  paths : int array option array;
  setup_timeout : float;
  max_retries : int;
  refresh_interval : float option;
  lifetime : float;  (* refresh_interval * lifetime_epochs; 0 when off *)
  soft_on : bool;  (* refresh_interval given *)
  (* One single-link controller per link, owned by that link's upstream
     agent. *)
  ctrls : Controller.t array;
  (* Per agent, indexed by flow: the time its reservation was last
     asserted here, NaN when not stamped.  Only written when soft state is
     on; the sweep expires stale entries.  [soft_n] counts the stamps. *)
  soft : float array array;
  soft_n : int array;
  (* Control tokens in flight, each naming the session whose message it
     is.  Every control packet resolves its token through the session's
     [msg], so a stale or duplicated packet can never be replayed as the
     wrong message kind — a setup retransmission cannot masquerade as a
     refresh and re-stamp state a rollback just cleared. *)
  pending_msgs : session Tokens.t;
  mutable next_token : int;
  (* The teardown reap lane: a token whose leg may have died on the wire
     is reaped a fixed delay after it was sent, so the tokens come due in
     the order they were pushed.  A refresh leg needs no reap: the next
     pass or the session's removal withdraws it. *)
  teardown_reaps : Engine.lane;
  teardown_reap_delay : float;
  (* Every established flow's refresh timer waits [refresh_interval], so
     the timers are one lane: each arming pushes a fresh serial and queues
     the flow in [refresh_flows], in the same order.  An entry whose flow
     has since been removed, or set up again under the same id, no longer
     matches its flow's session and fires as a no-op.  Ids, not sessions,
     so a departed session is not kept. *)
  refresh_lane : Engine.lane;
  refresh_flows : Ispn_util.Ring.t;
  mutable next_serial : int;
  (* Indexed by flow, grown on demand: the session setting up or
     established under that id, or [vacant], a session that stands for
     none. *)
  mutable sessions : session array;
  vacant : session;
  mutable established_count : int;
  mutable total_established : int;
  mutable refused_count : int;
  mutable teardowns : int;
  mutable control_packets : int;
  mutable retries : int;
  mutable abandoned : int;
  mutable crashes : int;
  mutable degraded : int;
  mutable reestablished : int;
  mutable reestablish_total : float;
  mutable refreshes : int;
  mutable refresh_packets : int;
  mutable teardown_packets : int;
  mutable expired : int;
}

let established_count t = t.established_count
let total_established t = t.total_established
let refused_count t = t.refused_count
let teardown_count t = t.teardowns
let control_packets_sent t = t.control_packets
let retries t = t.retries
let abandoned_count t = t.abandoned
let crash_count t = t.crashes
let degraded_count t = t.degraded
let reestablished_count t = t.reestablished
let refresh_epochs t = t.refreshes
let refresh_packets_sent t = t.refresh_packets
let teardown_packets_sent t = t.teardown_packets
let expired_count t = t.expired
let soft_state_count t ~link = t.soft_n.(link)
let tokens_in_flight t = Tokens.length t.pending_msgs

let mean_reestablish_latency t =
  if t.reestablished = 0 then 0.
  else t.reestablish_total /. float_of_int t.reestablished

let controller t ~link = t.ctrls.(link)

let register_metrics t m () =
  let prefix = "signaling" in
  let module M = Ispn_obs.Metrics in
  M.register_int m (prefix ^ ".established") (fun () -> t.established_count);
  M.register_int m (prefix ^ ".total_established") (fun () ->
      t.total_established);
  M.register_int m (prefix ^ ".refused") (fun () -> t.refused_count);
  M.register_int m (prefix ^ ".teardowns") (fun () -> t.teardowns);
  M.register_int m (prefix ^ ".control_packets") (fun () -> t.control_packets);
  M.register_int m (prefix ^ ".retries") (fun () -> t.retries);
  M.register_int m (prefix ^ ".abandoned") (fun () -> t.abandoned);
  M.register_int m (prefix ^ ".crashes") (fun () -> t.crashes);
  M.register_int m (prefix ^ ".degraded") (fun () -> t.degraded);
  M.register_int m (prefix ^ ".reestablished") (fun () -> t.reestablished);
  M.register_int m (prefix ^ ".refreshes") (fun () -> t.refreshes);
  M.register_int m (prefix ^ ".refresh_packets") (fun () -> t.refresh_packets);
  M.register_int m (prefix ^ ".teardown_packets") (fun () ->
      t.teardown_packets);
  M.register_int m (prefix ^ ".expired") (fun () -> t.expired);
  M.register_float m (prefix ^ ".reestablish_latency_mean") (fun () ->
      mean_reestablish_latency t)

let register_audit t audit =
  Array.iteri
    (fun link ctrl ->
      Ispn_check.Audit.register_flow_state audit
        ~label:(Printf.sprintf "agent %d" link)
        ~admitted:(fun () -> Controller.admissions ctrl)
        ~released:(fun () -> Controller.releases ctrl)
        ~live:(fun () -> Controller.live ctrl)
        ())
    t.ctrls;
  Ispn_check.Audit.register_flow_state audit ~label:"sessions"
    ~admitted:(fun () -> t.total_established)
    ~released:(fun () -> t.teardowns)
    ~live:(fun () -> t.established_count)
    ()

(* The session under [flow], or [t.vacant] if there is none. *)
let session_of t flow =
  if flow >= 0 && flow < Array.length t.sessions then t.sessions.(flow)
  else t.vacant

(* The established session of [flow], or [t.vacant] (which has no setup
   either). *)
let established t flow =
  let s = session_of t flow in
  match s.setup with None -> s | Some _ -> t.vacant

(* Whether [s] is still the established session of its flow. *)
let is_current t s = s != t.vacant && established t s.flow_id == s

let service_level t ~flow =
  let s = established t flow in
  if s == t.vacant then None else Some (level_of s.current)

(* The agent at [link] (re-)asserts [flow]'s reservation in its soft-state
   book at time [now]; the sweep tears it down [lifetime] later unless
   re-stamped.  The handlers below read the clock once per event and hand
   the same [now] to every stamp and control packet of that event. *)
let stamp t ~link ~flow ~now =
  if t.soft_on then begin
    if flow >= Array.length t.soft.(link) then
      t.soft.(link) <- Ispn_util.Dense.fit t.soft.(link) flow Float.nan;
    let a = t.soft.(link) in
    if Float.is_nan a.(flow) then t.soft_n.(link) <- t.soft_n.(link) + 1;
    a.(flow) <- now
  end

let unstamp t ~link ~flow =
  let a = t.soft.(link) in
  if flow < Array.length a && not (Float.is_nan a.(flow)) then begin
    a.(flow) <- Float.nan;
    t.soft_n.(link) <- t.soft_n.(link) - 1
  end

(* Put [s]'s next message on the wire under a fresh token. *)
let post t s kind ~hop =
  let token = t.next_token in
  t.next_token <- token + 1;
  Tokens.replace t.pending_msgs token s;
  s.msg <- kind;
  s.msg_hop <- hop;
  s.msg_token <- token;
  token

(* Invalidate [s]'s message on the wire, if any. *)
let withdraw msgs s =
  if s.msg_token >= 0 then begin
    Tokens.remove msgs s.msg_token;
    s.msg <- No_msg;
    s.msg_token <- -1
  end

(* The hop at which [path] crosses [link], or -1. *)
let hop_of path (link : int) =
  let rec go i =
    if i >= Array.length path then -1
    else if path.(i) = link then i
    else go (i + 1)
  in
  go 0

(* Release [flow] at one hop: admission record, scheduler registration,
   soft-state stamp.  [code] is the hop's grant: a class grant clears the
   class, a classless one the reservation it may hold (datagram grants
   hold none); [no_grant] — a hop whose grant is unknown — clears both. *)
let release_hop t ~link ~flow code =
  Controller.release t.ctrls.(link) ~flow;
  let sched = t.scheds.(link) in
  if code <> no_class then Csz_sched.clear_predicted sched ~flow;
  if code < 0 && Csz_sched.is_guaranteed sched ~flow then
    Csz_sched.remove_guaranteed sched ~flow;
  unstamp t ~link ~flow

(* Drop every trace of [flow] at one hop.  Unconditional and
   idempotent. *)
let wipe_hop t ~link ~flow = release_hop t ~link ~flow no_grant

(* Release every granted hop of [s] and forget the grants. *)
let release_granted t s =
  for hop = 0 to Array.length s.path - 1 do
    let code = s.granted.(hop) in
    if code <> no_grant then begin
      release_hop t ~link:s.path.(hop) ~flow:s.flow_id code;
      s.granted.(hop) <- no_grant
    end
  done

(* Put one control packet on the wire over [over_link], injected at its
   upstream switch; the pre-installed control route carries it across
   exactly one hop, through the datagram class. *)
let send_ctrl t ~at_switch ~over_link ~now token =
  t.control_packets <- t.control_packets + 1;
  let pkt =
    Packet.make
      ~flow:(ctrl_flow_base + over_link)
      ~seq:token ~size_bits:control_packet_bits ~created:now ()
  in
  Fabric.inject t.fab ~at_switch pkt

(* The per-hop admission request: the end-to-end delay target is split
   evenly over the hops so each local controller can pick a class for its
   own switch (the paper allows different levels per switch). *)
let local_of spec ~hops =
  match spec with
  | Spec.Predicted { bucket; target_delay; target_loss } ->
      Spec.Predicted
        {
          bucket;
          target_delay = target_delay /. float_of_int hops;
          target_loss;
        }
  | (Spec.Guaranteed _ | Spec.Datagram) as s -> s

let rec process t token =
  match Tokens.find t.pending_msgs token with
  | exception Not_found ->
      ()  (* stale, duplicated or retransmitted-over control packet *)
  | s -> (
      let kind = s.msg and hop = s.msg_hop and now = Engine.now t.eng in
      withdraw t.pending_msgs s;
      match kind with
      | Setup_msg -> (
          match s.setup with
          | Some su ->
              (match su.timer with
              | Some h -> Engine.cancel t.eng h
              | None -> ());
              su.timer <- None;
              su.attempts <- 0;
              advance t s su hop ~now
          | None -> ())
      | Refresh_msg ->
          (* Only a still-established flow may be refreshed: a teardown
             racing this packet has already invalidated the token, but be
             safe. *)
          if is_current t s then refresh_hop t s hop ~now
      | Teardown_msg -> teardown_hop t s hop ~now
      | No_msg -> ())

(* The callback of every timer a setup arms. *)
and wake t s su () =
  match su.phase with
  | Awaiting_reply -> on_timeout t s su
  | Confirming -> establish t s su
  | Refusing msg ->
      t.sessions.(s.flow_id) <- t.vacant;
      t.refused_count <- t.refused_count + 1;
      su.on_result (Error msg)

(* Try to reserve at [hop] (an index into s.path); on success forward the
   setup message over that hop's link, or confirm if past the last hop. *)
and advance t s su hop ~now =
  if hop >= Array.length s.path then confirm t s su
  else begin
    let link = s.path.(hop) in
    match
      Controller.request t.ctrls.(link) ~flow:s.flow_id ~hops:1 su.local
    with
    | Controller.Rejected reason -> refuse t s su hop reason
    | Controller.Admitted { cls } ->
        Fabric.grant t.fab ~link ~flow:s.flow_id s.requested ~cls;
        (match cls with
        | Some c -> su.bound_acc <- su.bound_acc +. Spec.class_targets.(c)
        | None -> ());
        stamp t ~link ~flow:s.flow_id ~now;
        s.granted.(hop) <- code_of_cls cls;
        forward t s su (hop + 1) ~now
  end

(* Put the setup message on the wire toward the next agent and arm its
   retransmission timer.  [hop] is the next hop to reserve; the message
   travels the link just reserved, [hop - 1]. *)
and forward t s su hop ~now =
  let token = post t s Setup_msg ~hop in
  send_ctrl t ~at_switch:(s.ingress + hop - 1) ~over_link:s.path.(hop - 1) ~now
    token;
  (* The first attempt passes the stored timeout itself, not a product
     that would be boxed afresh. *)
  let h =
    if su.attempts = 0 then
      Engine.schedule_after t.eng ~delay:t.setup_timeout su.wake
    else
      Engine.schedule_after t.eng
        ~delay:(t.setup_timeout *. (2. ** float_of_int su.attempts))
        su.wake
  in
  su.timer <- Some h

(* The message (or the wire under it) was lost: retransmit with exponential
   backoff, invalidating the old token first so a copy that was merely
   delayed cannot double-reserve when it finally lands. *)
and on_timeout t s su =
  let hop = s.msg_hop in
  if s.msg = Setup_msg then begin
    withdraw t.pending_msgs s;
    su.timer <- None;
    if su.attempts >= t.max_retries then begin
      t.abandoned <- t.abandoned + 1;
      fail t s su ~failed_hop:(hop - 1)
        (Printf.sprintf "setup timed out at hop %d after %d attempts" hop
           (su.attempts + 1))
    end
    else begin
      su.attempts <- su.attempts + 1;
      t.retries <- t.retries + 1;
      forward t s su hop ~now:(Engine.now t.eng)
    end
  end

(* Every hop granted: the confirmation travels the reverse path. *)
and confirm t s su =
  let delay = reverse_hop_delay *. float_of_int (Array.length s.path) in
  su.phase <- Confirming;
  ignore (Engine.schedule_after t.eng ~delay su.wake)

(* The confirmation reaches the ingress: the flow is established. *)
and establish t s su =
  let flow = s.flow_id and hops = Array.length s.path in
  s.setup <- None;
  t.established_count <- t.established_count + 1;
  t.total_established <- t.total_established + 1;
  arm_refresh t s;
  Fabric.install_flow t.fab ~flow ~ingress:s.ingress ~egress:su.egress
    ~sink:su.sink;
  let emit = Fabric.edge t.fab ~ingress:s.ingress s.requested in
  let cls, bound =
    match s.requested with
    | Spec.Guaranteed { clock_rate_bps } ->
        let bound =
          match s.own_bucket with
          | Some bucket ->
              Some (Bounds.pg_bound ~bucket ~clock_rate_bps ~hops ())
          | None -> None
        in
        (None, bound)
    | Spec.Predicted _ ->
        let c = s.granted.(0) in
        ((if c >= 0 then Some c else None), Some su.bound_acc)
    | Spec.Datagram -> (None, None)
  in
  su.on_result
    (Ok
       {
         flow;
         cls;
         advertised_bound = bound;
         setup_time = Engine.now t.eng -. su.started_at;
         emit;
       })

and refuse t s su failed_hop reason =
  fail t s su ~failed_hop
    ("refused at hop " ^ string_of_int (failed_hop + 1) ^ ": " ^ reason)

(* Roll back every reservation made so far, then report after the reverse
   trip. *)
and fail t s su ~failed_hop msg =
  release_granted t s;
  let delay = reverse_hop_delay *. float_of_int (failed_hop + 1) in
  su.phase <- Refusing msg;
  ignore (Engine.schedule_after t.eng ~delay su.wake)

(* {2 Soft state: refresh, expiry, in-band teardown} *)

(* Each established flow runs a PATH/RESV-style refresh pump: every
   [refresh_interval] the ingress agent re-stamps its own hop and sends a
   refresh message down the path, each agent re-stamping as it passes.  A
   hop that has forgotten the flow (crash, expiry during a partition)
   flips [needs_reassert]; the pass then ends in the same idempotent
   re-assert used after a crash, restoring — or degrading — the
   reservation.  Refresh messages are fire-and-forget: retransmitting them
   is pointless because the next epoch repeats them anyway, and its pass
   withdraws the token of a leg that died on the wire. *)
and arm_refresh t s =
  match t.refresh_interval with
  | None -> ()
  | Some ri ->
      let serial = t.next_serial in
      t.next_serial <- serial + 1;
      s.refresh_serial <- serial;
      Ispn_util.Ring.push t.refresh_flows s.flow_id;
      Engine.lane_push_after t.refresh_lane ~delay:ri serial

(* A refresh timer fires: its flow's session runs a pass and re-arms if it
   is still the established session that armed [serial]. *)
and refresh_due t serial =
  let flow = Ispn_util.Ring.pop_exn t.refresh_flows in
  let s = established t flow in
  if s != t.vacant && s.refresh_serial = serial then begin
    refresh_now t ~flow;
    arm_refresh t s
  end

and refresh_now t ~flow =
  let s = established t flow in
  if s != t.vacant then begin
    t.refreshes <- t.refreshes + 1;
    (* Supersede any leg of the previous epoch still on the wire. *)
    withdraw t.pending_msgs s;
    let now = Engine.now t.eng in
    s.pass_started <- now;
    s.needs_reassert <- false;
    refresh_hop t s 0 ~now
  end

and refresh_hop t s hop ~now =
  let flow = s.flow_id in
  let link = s.path.(hop) in
  (if Controller.mem t.ctrls.(link) ~flow then stamp t ~link ~flow ~now
   else s.needs_reassert <- true);
  if hop + 1 < Array.length s.path then begin
    let token = post t s Refresh_msg ~hop:(hop + 1) in
    t.refresh_packets <- t.refresh_packets + 1;
    send_ctrl t ~at_switch:(s.ingress + hop) ~over_link:link ~now token
  end
  else if s.needs_reassert then resetup t ~flow ~crashed_at:s.pass_started

(* An in-band teardown walking the path.  Deliberately fire-and-forget: a
   lost leg leaves the downstream state to the refresh timeout. *)
and teardown_hop t s hop ~now =
  let link = s.path.(hop) in
  wipe_hop t ~link ~flow:s.flow_id;
  if hop + 1 < Array.length s.path then begin
    let token = post t s Teardown_msg ~hop:(hop + 1) in
    t.teardown_packets <- t.teardown_packets + 1;
    send_ctrl t ~at_switch:(s.ingress + hop) ~over_link:link ~now token;
    Engine.lane_push_after t.teardown_reaps ~delay:t.teardown_reap_delay
      token
  end

(* {2 Crash recovery} *)

(* Drop every trace of the flow along its whole path — admission records
   and scheduler registrations alike — and forget its grants.
   Unconditional and idempotent, so it is safe whatever mix of surviving
   and freshly re-acquired state the flow has when a re-assertion pass
   fails halfway. *)
and release_everywhere t s =
  Array.iter (fun link -> wipe_hop t ~link ~flow:s.flow_id) s.path;
  Array.fill s.granted 0 (Array.length s.granted) no_grant

and note_reestablished t ~crashed_at =
  t.reestablished <- t.reestablished + 1;
  t.reestablish_total <- t.reestablish_total +. (Engine.now t.eng -. crashed_at)

(* Re-assert [spec] for an established flow hop by hop.  Idempotent: a hop
   whose controller still knows the flow keeps its existing grant; only
   hops that forgot are re-requested.  If any hop refuses, the flow slides
   one rung down the degradation ladder (guaranteed -> predicted ->
   datagram, Section 2's adaptive client accepting a looser commitment) and
   the pass restarts with the weaker spec. *)
and reassert t ~crashed_at s spec =
  let flow = s.flow_id and hops = Array.length s.path in
  let now = Engine.now t.eng in
  match spec with
  | Spec.Datagram ->
      (* Bottom rung: datagram needs no per-hop state, it always succeeds. *)
      release_everywhere t s;
      s.current <- Spec.Datagram;
      note_reestablished t ~crashed_at
  | Spec.Guaranteed _ | Spec.Predicted _ ->
      let local = local_of spec ~hops in
      let rec go hop =
        hop >= hops
        ||
        let link = s.path.(hop) in
        let ctrl = t.ctrls.(link) in
        if Controller.mem ctrl ~flow then begin
          stamp t ~link ~flow ~now;
          if s.granted.(hop) = no_grant then s.granted.(hop) <- no_class;
          go (hop + 1)
        end
        else
          match Controller.request ctrl ~flow ~hops:1 local with
          | Controller.Rejected _ -> false
          | Controller.Admitted { cls } ->
              (* A reservation the scheduler still holds (draining its
                 last packets) is kept as it is. *)
              (try Fabric.grant t.fab ~link ~flow spec ~cls
               with Invalid_argument _ when level_of spec = Guaranteed -> ());
              stamp t ~link ~flow ~now;
              s.granted.(hop) <- code_of_cls cls;
              go (hop + 1)
      in
      if go 0 then begin
        s.current <- spec;
        note_reestablished t ~crashed_at
      end
      else begin
        t.degraded <- t.degraded + 1;
        release_everywhere t s;
        reassert t ~crashed_at s (degrade s spec ~hops)
      end

and degrade s spec ~hops =
  match spec with
  | Spec.Guaranteed { clock_rate_bps } ->
      (* Ask for predicted service shaped like the old commitment: the
         flow's declared bucket if it gave one, else a bucket at the old
         clock rate; the delay target is the loosest class end to end. *)
      let bucket =
        match s.own_bucket with
        | Some b -> b
        | None ->
            {
              Spec.rate_bps = clock_rate_bps;
              depth_bits = 5. *. float_of_int Units.packet_bits;
            }
      in
      let loosest =
        Spec.class_targets.(Array.length Spec.class_targets - 1)
      in
      Spec.Predicted
        {
          bucket;
          target_delay = loosest *. float_of_int hops;
          target_loss = 0.01;
        }
  | Spec.Predicted _ | Spec.Datagram -> Spec.Datagram

and resetup t ~flow ~crashed_at =
  let s = established t flow in
  (* Vacant if torn down while the refresh was in flight. *)
  if s != t.vacant then reassert t ~crashed_at s s.current

(* The agent at [link] expires one un-refreshed reservation: releases the
   admission record and scheduler registration, and — when the flow is
   still nominally established — drops the hop from its grants so a later
   teardown does not double-release.  The next refresh pass notices the
   missing hop and re-asserts; state of a departed flow whose teardown was
   lost simply dies here. *)
let expire t ~link ~flow =
  t.expired <- t.expired + 1;
  wipe_hop t ~link ~flow;
  let s = established t flow in
  if s != t.vacant then begin
    let hop = hop_of s.path link in
    if hop >= 0 then s.granted.(hop) <- no_grant
  end

(* A session for [flow] over [path], with no setup attached. *)
let new_session ~flow ~ingress ~path ?own_bucket spec =
  {
    flow_id = flow;
    ingress;
    path;
    granted = Array.make (Array.length path) no_grant;
    requested = spec;
    own_bucket;
    setup = None;
    current = spec;
    refresh_serial = -1;
    msg = No_msg;
    msg_hop = 0;
    msg_token = -1;
    pass_started = 0.;
    needs_reassert = false;
  }

let deploy ~fabric:fab ?(setup_timeout = 0.05) ?(max_retries = 4)
    ?refresh_interval ?(lifetime_epochs = 3) () =
  if not (setup_timeout > 0.) then
    invalid_arg "Signaling.deploy: setup_timeout must be positive";
  if max_retries < 0 then
    invalid_arg "Signaling.deploy: max_retries must be non-negative";
  (match refresh_interval with
  | Some ri when not (ri > 0.) ->
      invalid_arg "Signaling.deploy: refresh_interval must be positive"
  | Some _ | None -> ());
  if lifetime_epochs < 1 then
    invalid_arg "Signaling.deploy: lifetime_epochs must be at least 1";
  let n_links = Fabric.n_links fab in
  (* Chain check: link i must be the one-hop path from switch i to i+1. *)
  for i = 0 to n_links - 1 do
    match Fabric.path fab ~ingress:i ~egress:(i + 1) with
    | Some [ l ] when l = i -> ()
    | _ -> invalid_arg "Signaling.deploy: chain fabrics only"
  done;
  let n_switches = Fabric.n_switches fab in
  let ctrls = Array.init n_links (fun _ -> Controller.create ()) in
  let lifetime =
    match refresh_interval with
    | None -> 0.
    | Some ri -> ri *. float_of_int lifetime_epochs
  in
  let soft_on = Option.is_some refresh_interval in
  let vacant = new_session ~flow:(-1) ~ingress:0 ~path:[||] Spec.Datagram in
  let eng = Fabric.engine fab in
  let pending_msgs = Tokens.create ~dummy:vacant () in
  (* A token still pending when its reap comes due is its session's
     message on the wire: withdraw it. *)
  let teardown_reaps =
    Engine.lane eng (fun token ->
        match Tokens.find pending_msgs token with
        | s -> withdraw pending_msgs s
        | exception Not_found -> ())
  in
  (* The refresh lane's callback needs [t], which holds the lane. *)
  let due = ref (fun (_ : int) -> ()) in
  let t =
    {
      fab;
      eng;
      scheds = Array.init n_links (fun link -> Fabric.sched fab ~link);
      n_switches;
      paths = Array.make (n_switches * n_switches) None;
      setup_timeout;
      max_retries;
      refresh_interval;
      lifetime;
      soft_on;
      ctrls;
      soft = Array.make n_links [||];
      soft_n = Array.make n_links 0;
      pending_msgs;
      next_token = 0;
      teardown_reaps;
      teardown_reap_delay =
        (if soft_on then lifetime else 20. *. setup_timeout);
      refresh_lane = Engine.lane eng (fun serial -> !due serial);
      refresh_flows = Ispn_util.Ring.create ();
      next_serial = 0;
      sessions = [||];
      vacant;
      established_count = 0;
      total_established = 0;
      refused_count = 0;
      teardowns = 0;
      control_packets = 0;
      retries = 0;
      abandoned = 0;
      crashes = 0;
      degraded = 0;
      reestablished = 0;
      reestablish_total = 0.;
      refreshes = 0;
      refresh_packets = 0;
      teardown_packets = 0;
      expired = 0;
    }
  in
  due := refresh_due t;
  (* Control channels: one flow per link, delivered to the downstream
     agent, which resumes the setup from there. *)
  for link = 0 to n_links - 1 do
    Fabric.install_flow fab ~flow:(ctrl_flow_base + link) ~ingress:link
      ~egress:(link + 1)
      ~sink:(fun pkt ->
        let seq = Packet.seq pkt in
        Packet.free pkt;
        process t seq)
  done;
  (* The measurement feed: each link feeds its own controller, and the
     controllers rotate independently. *)
  Fabric.feed_meters fab
    ~meter:(fun i -> Controller.meter ctrls.(i))
    ~epoch:(fun () -> Array.iter Controller.epoch ctrls)
    ();
  (* The soft-state sweep: every refresh interval, each agent expires the
     reservations that have not been stamped within the lifetime, in
     ascending flow order. *)
  (match refresh_interval with
  | None -> ()
  | Some ri ->
      let rec sweep () =
        let now = Engine.now t.eng in
        for link = 0 to n_links - 1 do
          let a = t.soft.(link) in
          for flow = 0 to Array.length a - 1 do
            if now -. a.(flow) > t.lifetime then expire t ~link ~flow
          done
        done;
        ignore (Engine.schedule_after t.eng ~delay:ri sweep)
      in
      ignore (Engine.schedule_after t.eng ~delay:ri sweep));
  t

let route t ~ingress ~egress =
  let n = t.n_switches in
  if ingress < 0 || ingress >= n || egress < 0 || egress >= n then [||]
  else
    let i = (ingress * n) + egress in
    match t.paths.(i) with
    | Some path -> path
    | None ->
        let path =
          match Fabric.path t.fab ~ingress ~egress with
          | Some path -> Array.of_list path
          | None -> [||]
        in
        t.paths.(i) <- Some path;
        path

let setup t ~flow ~ingress ~egress ?own_bucket spec ~sink ~on_result =
  if flow < 0 then
    invalid_arg (Printf.sprintf "Signaling.setup: negative flow id %d" flow);
  if session_of t flow != t.vacant then
    invalid_arg
      (Printf.sprintf "Signaling.setup: flow %d already in flight" flow);
  let path = route t ~ingress ~egress in
  if Array.length path = 0 then on_result (Error "no route")
  else begin
    let now = Engine.now t.eng in
    let s = new_session ~flow ~ingress ~path ?own_bucket spec in
    let su =
      {
        egress;
        local = local_of spec ~hops:(Array.length path);
        sink;
        on_result;
        started_at = now;
        bound_acc = 0.;
        attempts = 0;
        phase = Awaiting_reply;
        wake = ignore;
        timer = None;
      }
    in
    su.wake <- wake t s su;
    s.setup <- Some su;
    if flow >= Array.length t.sessions then
      t.sessions <- Ispn_util.Dense.fit t.sessions flow t.vacant;
    t.sessions.(flow) <- s;
    (* The ingress agent processes hop 0 locally, with no wire delay. *)
    advance t s su 0 ~now
  end

(* Retire [s]: its refresh entry, no longer its flow's session, fires as
   a no-op, and any refresh leg on the wire is invalidated, so a delayed
   refresh cannot re-assert state for a flow being removed. *)
let remove_record t s =
  withdraw t.pending_msgs s;
  t.sessions.(s.flow_id) <- t.vacant;
  t.established_count <- t.established_count - 1;
  t.teardowns <- t.teardowns + 1

let teardown t ~flow =
  let s = established t flow in
  if s != t.vacant then begin
    remove_record t s;
    release_granted t s
  end

let depart t ~flow =
  let s = established t flow in
  if s != t.vacant then begin
    remove_record t s;
    (* The ingress hop is released locally; the rest of the path learns by
       in-band teardown message, each hop releasing and forwarding.  A lost
       leg strands the downstream state — which is exactly what the refresh
       timeout exists to reclaim. *)
    teardown_hop t s 0 ~now:(Engine.now t.eng)
  end

let crash_agent t ~switch =
  let n_links = Array.length t.ctrls in
  if switch < 0 || switch >= n_links then
    invalid_arg
      (Printf.sprintf "Signaling.crash_agent: switch %d owns no outgoing link"
         switch);
  let link = switch in
  t.crashes <- t.crashes + 1;
  (* The agent's soft state dies with it: scheduler registrations on its
     outgoing link, its admission book and its refresh stamps.  The
     forwarding plane — qdisc, buffered packets, meters — keeps running,
     so admission decisions after the crash still see measured load.
     Established flows are visited in ascending id order. *)
  let sched = t.scheds.(link) in
  let affected = ref [] in
  for flow = 0 to Array.length t.sessions - 1 do
    let s = established t flow in
    let hop = if s == t.vacant then -1 else hop_of s.path link in
    if hop >= 0 then begin
      let code = s.granted.(hop) in
      if code >= 0 then Csz_sched.clear_predicted sched ~flow
      else if code = no_class && Csz_sched.is_guaranteed sched ~flow then
        Csz_sched.remove_guaranteed sched ~flow;
      match s.current with
      | Spec.Datagram -> ()
      | Spec.Guaranteed _ | Spec.Predicted _ -> affected := s :: !affected
    end
  done;
  Controller.reset t.ctrls.(link);
  Array.fill t.soft.(link) 0 (Array.length t.soft.(link)) Float.nan;
  t.soft_n.(link) <- 0;
  (* Soft-state recovery: every established flow through the dead agent
     re-asserts its reservation after one refresh round trip over its path
     (flows in ascending id order, for determinism). *)
  let crashed_at = Engine.now t.eng in
  List.iter
    (fun s ->
      let flow = s.flow_id in
      let delay = reverse_hop_delay *. float_of_int (Array.length s.path) in
      ignore
        (Engine.schedule_after t.eng ~delay (fun () ->
             resetup t ~flow ~crashed_at)))
    (List.rev !affected)
