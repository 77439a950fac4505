module Recorder = Ispn_obs.Recorder

(* Per-packet float accumulators live in an all-float record, so an
   update is an unboxed store; as a mutable float field of the mixed
   record below it would box a fresh float on every transmission. *)
type acc = { mutable busy_time : float }

(* The transmitter serializes one packet at a time ([tx_pkt], valid while
   [busy]) and schedules one event per packet, the end of serialization,
   through a per-link callback built once at [create], so no closure is
   allocated per packet.  With a constant [prop_delay] packets leave the
   wire in the order they entered it, so the wire is an engine lane of
   packet handles: the packets in flight cost the engine's heaps one
   entry, the head's.  A zero-delay link has no lane and delivers at the
   end of serialization. *)
type t = {
  engine : Engine.t;
  pa : Packet.arena;  (* this domain's packet arena, bound at create *)
  rate_bps : float;
  prop_delay : float;
  qdisc : Qdisc.t;
  link_name : string;
  id : int;
  recorder : Recorder.t option;
  mutable tap : Tap.t option;
  mutable receiver : (Packet.t -> unit) option;
  mutable wire_filter : (Packet.t -> Packet.t option) option;
  mutable up : bool;
  mutable busy : bool;
  mutable tx_pkt : Packet.t;
  mutable wire : Engine.lane option; (* set once, at [create] *)
  on_finish : unit -> unit;
  mutable sent : int;
  mutable dropped : int;
  mutable drops_buffer : int;
  mutable drops_down : int;
  mutable drops_wire : int;
  acc : acc;
  waits : Ispn_util.Stats.t;
}

let set_receiver t f = t.receiver <- Some f
let name t = t.link_name
let id t = t.id
let qdisc t = t.qdisc
let set_tap t tap = t.tap <- Some tap

let add_tap t tap =
  t.tap <-
    (match t.tap with
    | None -> Some tap
    | Some existing -> Some (Tap.seq existing tap))

let tapped t = Option.is_some t.tap
let set_wire_filter t f = t.wire_filter <- Some f
let is_up t = t.up

(* Inlined so the float [value] is boxed only when a recorder is attached;
   as a call it would box on every event of every link. *)
let[@inline] record t pkt ~kind ~value ~cause =
  match t.recorder with
  | None -> ()
  | Some r ->
      Recorder.record r ~time:(Engine.now t.engine) ~kind ~link:t.id
        ~flow:t.pa.Packet.flow.(pkt) ~seq:t.pa.Packet.seq.(pkt) ~cls:(-1)
        ~offset:t.pa.Packet.offset.(pkt) ~value ~cause

let drop t pkt ~cause =
  t.dropped <- t.dropped + 1;
  (match cause with
  | Recorder.Buffer -> t.drops_buffer <- t.drops_buffer + 1
  | Recorder.Down -> t.drops_down <- t.drops_down + 1
  | Recorder.Wire -> t.drops_wire <- t.drops_wire + 1
  | Recorder.No_cause -> ());
  record t pkt ~kind:Recorder.Drop ~value:0. ~cause;
  (match t.tap with
  | None -> ()
  | Some tp -> tp.Tap.on_drop ~link:t.id ~now:(Engine.now t.engine) ~cause pkt);
  (* A drop is terminal: nothing downstream will see the handle again. *)
  Packet.free pkt

let hand_over t pkt =
  record t pkt ~kind:Recorder.Deliver ~value:t.pa.Packet.qdelay_total.(pkt)
    ~cause:Recorder.No_cause;
  (match t.tap with
  | None -> ()
  | Some tp -> tp.Tap.on_deliver ~link:t.id ~now:(Engine.now t.engine) pkt);
  match t.receiver with
  | Some f -> f pkt
  | None -> failwith ("Link " ^ t.link_name ^ ": no receiver attached")

let deliver t pkt =
  match t.wire_filter with
  | None -> hand_over t pkt
  | Some f -> (
      match f pkt with
      | None -> drop t pkt ~cause:Recorder.Wire
      | Some pkt -> hand_over t pkt)

let rec start_transmission t =
  if not t.up then t.busy <- false
  else
    let now = Engine.now t.engine in
    match t.qdisc.Qdisc.dequeue ~now with
    | None ->
        t.busy <- false;
        (match t.tap with
        | None -> ()
        | Some tp ->
            tp.Tap.on_idle ~link:t.id ~now ~qlen:(t.qdisc.Qdisc.length ()))
    | Some pkt ->
        t.busy <- true;
        t.tx_pkt <- pkt;
        let wait = now -. t.pa.Packet.enqueued_at.(pkt) in
        (* A scheduler may not dequeue a packet before it arrived. *)
        assert (wait >= -1e-9);
        let wait = if 0. >= wait then 0. else wait in
        t.pa.Packet.qdelay_total.(pkt) <-
          t.pa.Packet.qdelay_total.(pkt) +. wait;
        Ispn_util.Stats.add t.waits wait;
        let tx_time =
          float_of_int t.pa.Packet.size_bits.(pkt) /. t.rate_bps
        in
        t.acc.busy_time <- t.acc.busy_time +. tx_time;
        record t pkt ~kind:Recorder.Dequeue ~value:wait
          ~cause:Recorder.No_cause;
        record t pkt ~kind:Recorder.Tx_start ~value:tx_time
          ~cause:Recorder.No_cause;
        (match t.tap with
        | None -> ()
        | Some tp -> tp.Tap.on_dequeue ~link:t.id ~now ~wait pkt);
        ignore (Engine.schedule_after t.engine ~delay:tx_time t.on_finish)

(* Serialization of [tx_pkt] is over: put it on the wire (or lose it, if
   the link failed meanwhile) and start the next one. *)
and finish t =
  let pkt = t.tx_pkt in
  if t.up then begin
    t.sent <- t.sent + 1;
    match t.wire with
    | None -> deliver t pkt
    | Some w -> Engine.lane_push_after w ~delay:t.prop_delay pkt
  end
  else
    (* The link failed mid-transmission: the frame is lost. *)
    drop t pkt ~cause:Recorder.Down;
  start_transmission t

let set_up t up =
  if up && not t.up then begin
    t.up <- true;
    if not t.busy then start_transmission t
  end
  else if (not up) && t.up then t.up <- false

let create ~engine ~rate_bps ?(prop_delay = 0.) ?(id = 0) ?recorder ~qdisc
    ~name () =
  assert (rate_bps > 0. && prop_delay >= 0.);
  let pa = Packet.arena () in
  let waits = Ispn_util.Stats.create () in
  let rec t =
    {
      engine;
      pa;
      rate_bps;
      prop_delay;
      qdisc;
      link_name = name;
      id;
      recorder;
      tap = None;
      receiver = None;
      wire_filter = None;
      up = true;
      busy = false;
      tx_pkt = Packet.dummy ();
      wire = None;
      on_finish = (fun () -> finish t);
      sent = 0;
      dropped = 0;
      drops_buffer = 0;
      drops_down = 0;
      drops_wire = 0;
      acc = { busy_time = 0. };
      waits;
    }
  in
  if prop_delay > 0. then t.wire <- Some (Engine.lane engine (deliver t));
  (* Non-work-conserving schedulers call this back when a held packet
     becomes eligible while the transmitter is idle. *)
  qdisc.Qdisc.attach_waker (fun () -> if not t.busy then start_transmission t);
  t

let send t pkt =
  let now = Engine.now t.engine in
  let qdelay_before = t.pa.Packet.qdelay_total.(pkt) in
  t.pa.Packet.enqueued_at.(pkt) <- now;
  if t.qdisc.Qdisc.enqueue ~now pkt then begin
    record t pkt ~kind:Recorder.Enqueue ~value:qdelay_before
      ~cause:Recorder.No_cause;
    (match t.tap with
    | None -> ()
    | Some tp -> tp.Tap.on_enqueue ~link:t.id ~now pkt);
    if not t.busy then start_transmission t
  end
  else begin
    Logs.debug ~src:Ispn_util.Log.link (fun m ->
        m "%s: buffer full, dropping flow %d seq %d at t=%.6f" t.link_name
          t.pa.Packet.flow.(pkt) t.pa.Packet.seq.(pkt) now);
    drop t pkt ~cause:Recorder.Buffer
  end

let sent t = t.sent
let dropped t = t.dropped
let drops_buffer t = t.drops_buffer
let drops_down t = t.drops_down
let drops_wire t = t.drops_wire

let utilization t ~elapsed =
  if elapsed <= 0. then 0. else t.acc.busy_time /. elapsed
let wait_stats t = t.waits

let register_metrics t m ~prefix =
  let module M = Ispn_obs.Metrics in
  M.register_int m (prefix ^ ".sent") (fun () -> t.sent);
  M.register_int m (prefix ^ ".drops.buffer") (fun () -> t.drops_buffer);
  M.register_int m (prefix ^ ".drops.down") (fun () -> t.drops_down);
  M.register_int m (prefix ^ ".drops.wire") (fun () -> t.drops_wire);
  M.register_float m (prefix ^ ".busy_time") (fun () -> t.acc.busy_time);
  M.register_int m (prefix ^ ".qdisc.len") (fun () -> t.qdisc.Qdisc.length ());
  M.register_stats m (prefix ^ ".wait") t.waits
