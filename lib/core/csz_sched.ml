open Ispn_sim
module Kheap = Ispn_util.Kheap
module Ewma = Ispn_util.Ewma
module Vtime = Ispn_sched.Vtime

type config = {
  link_rate_bps : float;
  n_predicted_classes : int;
  ewma_gain : float;
  discard_late_above : float option;
}

let default_config =
  {
    link_rate_bps = Ispn_util.Units.link_rate_bps;
    n_predicted_classes = 2;
    ewma_gain = 1. /. 4096.;
    discard_late_above = None;
  }

(* Guaranteed-flow state is structure-of-arrays indexed by the flow id
   (hot-path discipline, DESIGN.md): every packet consults
   [g_weight.(flow)] to classify itself, so that lookup must be a bare
   array load, not a Hashtbl probe.  [g_weight.(f) = 0.] marks a flow with
   no reservation; a retiring flow (reservation released, packets still
   queued) keeps its weight until it drains.  Finish tags live in [Vtime]:
   slot 0 is pseudo-flow 0, slot [f + 1] guaranteed flow [f]. *)
type g_flows = {
  mutable g_weight : float array;
  mutable g_qlen : int array;
  mutable g_retiring : bool array;
}

type class_state = { heap : Kheap.t; avg : Ewma.t }

type t = {
  cfg : config;
  pa : Packet.arena;  (* this domain's packet arena, bound at create *)
  pool : Qdisc.pool;
  gf : g_flows;
  g_heap : Kheap.t;
  mutable g_count : int;  (* guaranteed packets queued *)
  mutable g_weight_sum : float;
  classes : class_state array;  (* K predicted + 1 datagram *)
  mutable flow_cls : int array;  (* predicted class per flow; -1 = none *)
  (* Flow 0's committed next packet, unpacked into flat fields so
     re-examining the commitment on every dequeue allocates nothing. *)
  mutable head_valid : bool;
  mutable head_pkt : Packet.t;  (* meaningful only while [head_valid] *)
  mutable head_deadline : float;
  mutable head_seq : int;  (* tie-break rank in its class heap *)
  mutable head_cls : int;
  mutable head_start : float;  (* virtual start of flow 0's service slot *)
  mutable f0_backlog : int;  (* flow-0 packets queued, head included *)
  vt : Vtime.t;
  mutable late_discards : int;
  mutable realtime_bits : int;
  mutable datagram_bits : int;
  mutable delay_hook : (cls:int -> float -> unit) option;
  mutable last_now : float;  (* latest clock seen; for weight adjustments *)
  offset_dists : Ispn_util.Stats.t option array;
      (* per predicted class; Some only when metrics are attached *)
}

let datagram_class t = t.cfg.n_predicted_classes
let flow0_rate_bps t = t.cfg.link_rate_bps -. t.g_weight_sum
let guaranteed_reserved_bps t = t.g_weight_sum
let late_discards t = t.late_discards
let realtime_bits_sent t = t.realtime_bits
let datagram_bits_sent t = t.datagram_bits
let set_delay_hook t f = t.delay_hook <- Some f

let class_avg_delay t ~cls =
  if cls < 0 || cls > t.cfg.n_predicted_classes then
    invalid_arg "Csz_sched.class_avg_delay";
  Ewma.value t.classes.(cls).avg

(* Guaranteed lookup: a flow beyond the array has never held a
   reservation. *)
let g_weight_of t flow =
  if flow < Array.length t.gf.g_weight then t.gf.g_weight.(flow) else 0.

let grow_g t n =
  let gf = t.gf in
  let old = Array.length gf.g_weight in
  if n > old then begin
    let n = Int.max n (2 * old) in
    let weight = Array.make n 0. in
    let qlen = Array.make n 0 in
    let retiring = Array.make n false in
    Array.blit gf.g_weight 0 weight 0 old;
    Array.blit gf.g_qlen 0 qlen 0 old;
    Array.blit gf.g_retiring 0 retiring 0 old;
    gf.g_weight <- weight;
    gf.g_qlen <- qlen;
    gf.g_retiring <- retiring
  end

let cls_of t flow =
  if flow < Array.length t.flow_cls then t.flow_cls.(flow) else -1

let grow_cls t n =
  let old = Array.length t.flow_cls in
  if n > old then begin
    let n = Int.max n (2 * old) in
    let bigger = Array.make n (-1) in
    Array.blit t.flow_cls 0 bigger 0 old;
    t.flow_cls <- bigger
  end

let f0_active t = t.f0_backlog > 0

(* Flow 0's committed packet: the earliest-deadline packet of the highest-
   priority backlogged class.  The commitment is re-examined on every
   dequeue because a higher-priority packet may have arrived since the last
   promotion; the virtual service slot (head_start) survives such a swap —
   it belongs to flow 0, not to the particular packet. *)
let commit_head t c =
  let heap = t.classes.(c).heap in
  t.head_deadline <- Kheap.min_key_exn heap;
  t.head_seq <- Kheap.min_seq_exn heap;
  t.head_pkt <- Kheap.pop_exn heap;
  t.head_cls <- c;
  t.head_valid <- true

let refresh_head t ~now =
  let best =
    let rec find c =
      if c > t.cfg.n_predicted_classes then -1
      else if Kheap.length t.classes.(c).heap > 0 then c
      else find (c + 1)
    in
    find 0
  in
  if best >= 0 then
    if not t.head_valid then begin
      commit_head t best;
      Vtime.advance t.vt ~now;
      t.head_start <- Vtime.start t.vt ~slot:0
    end
    else if best < t.head_cls then begin
      (* Demote the committed packet; promote the higher-priority one. *)
      Kheap.push_pinned t.classes.(t.head_cls).heap ~key:t.head_deadline
        ~seq:t.head_seq t.head_pkt;
      commit_head t best
    end

let head_tag t =
  t.head_start
  +. (float_of_int t.pa.Packet.size_bits.(t.head_pkt) /. flow0_rate_bps t)

let serve_flow0 t ~now =
  let pkt = t.head_pkt in
  let cls = t.head_cls in
  Vtime.set_finish t.vt ~slot:0 (head_tag t);
  t.head_valid <- false;
  t.f0_backlog <- t.f0_backlog - 1;
  if t.f0_backlog = 0 then
    Vtime.flow_deactivated t.vt ~now ~weight:(flow0_rate_bps t);
  Qdisc.pool_release t.pool;
  let pa = t.pa in
  let delay = now -. pa.Packet.enqueued_at.(pkt) in
  if cls < t.cfg.n_predicted_classes then begin
    (* FIFO+ bookkeeping: export this hop's deviation from the class
       average in the packet header, then update the average. *)
    let st = t.classes.(cls) in
    pa.Packet.offset.(pkt) <-
      pa.Packet.offset.(pkt) +. (delay -. Ewma.value st.avg);
    Ewma.update st.avg delay;
    (match t.offset_dists.(cls) with
    | None -> ()
    | Some d -> Ispn_util.Stats.add d pa.Packet.offset.(pkt));
    t.realtime_bits <- t.realtime_bits + pa.Packet.size_bits.(pkt)
  end
  else t.datagram_bits <- t.datagram_bits + pa.Packet.size_bits.(pkt);
  (match t.delay_hook with Some f -> f ~cls delay | None -> ());
  Some pkt

let serve_guaranteed t ~now =
  let pkt = Kheap.pop_exn t.g_heap in
  let flow = t.pa.Packet.flow.(pkt) in
  let gf = t.gf in
  let q = gf.g_qlen.(flow) - 1 in
  gf.g_qlen.(flow) <- q;
  t.g_count <- t.g_count - 1;
  if q = 0 then begin
    let weight = gf.g_weight.(flow) in
    Vtime.flow_deactivated t.vt ~now ~weight;
    if gf.g_retiring.(flow) then begin
      gf.g_weight.(flow) <- 0.;
      gf.g_retiring.(flow) <- false;
      t.g_weight_sum <- t.g_weight_sum -. weight;
      if f0_active t then Vtime.adjust_active t.vt ~now ~delta:weight
    end
  end;
  Qdisc.pool_release t.pool;
  t.realtime_bits <- t.realtime_bits + t.pa.Packet.size_bits.(pkt);
  (match t.delay_hook with
  | Some f -> f ~cls:(-1) (now -. t.pa.Packet.enqueued_at.(pkt))
  | None -> ());
  Some pkt

(* [t.last_now <- Ispn_util.Fcmp.fmax t.last_now now], written out: a
   call across modules on every enqueue and dequeue costs more than the
   compare, and the store is skipped while the clock stands still. *)
let note_now t now = if not (t.last_now >= now) then t.last_now <- now

let enqueue t ~now pkt =
  note_now t now;
  t.pa.Packet.enqueued_at.(pkt) <- now;
  let flow = t.pa.Packet.flow.(pkt) in
  let gw = g_weight_of t flow in
  if gw > 0. then begin
    if Qdisc.pool_take t.pool then begin
      Vtime.advance t.vt ~now;
      let gf = t.gf in
      if gf.g_qlen.(flow) = 0 then Vtime.flow_activated t.vt ~weight:gw;
      (* Boxed once for both calls below, as in [Wfq]. *)
      let tag =
        Sys.opaque_identity
          (Vtime.start t.vt ~slot:(flow + 1)
          +. (float_of_int t.pa.Packet.size_bits.(pkt) /. gw))
      in
      Vtime.set_finish t.vt ~slot:(flow + 1) tag;
      gf.g_qlen.(flow) <- gf.g_qlen.(flow) + 1;
      t.g_count <- t.g_count + 1;
      Kheap.push t.g_heap ~key:tag pkt;
      true
    end
    else false
  end
  else begin
    let cls =
      let c = cls_of t flow in
      if c >= 0 then c else datagram_class t
    in
    let late =
      cls < t.cfg.n_predicted_classes
      &&
      match t.cfg.discard_late_above with
      | Some threshold -> t.pa.Packet.offset.(pkt) > threshold
      | None -> false
    in
    if late then begin
      t.late_discards <- t.late_discards + 1;
      false
    end
    else if Qdisc.pool_take t.pool then begin
      Vtime.advance t.vt ~now;
      if not (f0_active t) then
        Vtime.flow_activated t.vt ~weight:(flow0_rate_bps t);
      Kheap.push t.classes.(cls).heap
        ~key:(t.pa.Packet.enqueued_at.(pkt) -. t.pa.Packet.offset.(pkt))
        pkt;
      t.f0_backlog <- t.f0_backlog + 1;
      true
    end
    else false
  end

let dequeue t ~now =
  note_now t now;
  Vtime.advance t.vt ~now;
  refresh_head t ~now;
  if not t.head_valid then
    if Kheap.is_empty t.g_heap then None else serve_guaranteed t ~now
  else if Kheap.is_empty t.g_heap then serve_flow0 t ~now
  else if Kheap.min_key_exn t.g_heap <= head_tag t then
    serve_guaranteed t ~now
  else serve_flow0 t ~now

let length t = t.g_count + t.f0_backlog

let create ?(config = default_config) ?metrics ?(label = "0") ~pool () =
  assert (config.link_rate_bps > 0. && config.n_predicted_classes >= 1);
  let n = config.n_predicted_classes + 1 in
  let t =
    {
      cfg = config;
      pa = Packet.arena ();
      pool;
      gf =
        {
          g_weight = Array.make 64 0.;
          g_qlen = Array.make 64 0;
          g_retiring = Array.make 64 false;
        };
      g_heap = Kheap.create ~capacity:64 ();
      g_count = 0;
      g_weight_sum = 0.;
      classes =
        Array.init n (fun _ ->
            {
              heap = Kheap.create ~capacity:64 ();
              avg = Ewma.create ~gain:config.ewma_gain ();
            });
      flow_cls = Array.make 64 (-1);
      head_valid = false;
      head_pkt = Packet.dummy ();
      head_deadline = 0.;
      head_seq = 0;
      head_cls = 0;
      head_start = 0.;
      f0_backlog = 0;
      vt = Vtime.create ~link_rate_bps:config.link_rate_bps;
      late_discards = 0;
      realtime_bits = 0;
      datagram_bits = 0;
      delay_hook = None;
      last_now = 0.;
      offset_dists =
        Array.init config.n_predicted_classes (fun c ->
            match metrics with
            | None -> None
            | Some m ->
                Some
                  (Ispn_obs.Metrics.dist m
                     (Printf.sprintf "csz.%s.class.%d.offset" label c)));
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let module M = Ispn_obs.Metrics in
      let p = "csz." ^ label in
      M.register_float m (p ^ ".vtime") (fun () -> Vtime.v t.vt);
      M.register_float m (p ^ ".reserved_bps") (fun () -> t.g_weight_sum);
      M.register_float m (p ^ ".flow0_rate_bps") (fun () -> flow0_rate_bps t);
      M.register_int m (p ^ ".late_discards") (fun () -> t.late_discards);
      M.register_int m (p ^ ".realtime_bits") (fun () -> t.realtime_bits);
      M.register_int m (p ^ ".datagram_bits") (fun () -> t.datagram_bits);
      M.register_int m (p ^ ".g_backlog") (fun () -> t.g_count);
      M.register_int m (p ^ ".f0_backlog") (fun () -> t.f0_backlog);
      Array.iteri
        (fun c st ->
          let cp = Printf.sprintf "%s.class.%d" p c in
          M.register_float m (cp ^ ".avg_delay") (fun () -> Ewma.value st.avg);
          M.register_int m (cp ^ ".len") (fun () -> Kheap.length st.heap))
        t.classes);
  let qdisc =
    Qdisc.make
      ~enqueue:(fun ~now pkt -> enqueue t ~now pkt)
      ~dequeue:(fun ~now -> dequeue t ~now)
      ~length:(fun () -> length t)
      ~name:"CSZ" ()
  in
  (t, qdisc)

(* Changing a reservation re-sizes flow 0; when flow 0 is live its weight in
   the GPS active sum must change too, with virtual time integrated up to the
   latest clock the scheduler has seen first. *)
let resize_flow0 t ~delta_reserved =
  if f0_active t then begin
    (* Flow 0's weight moves opposite to the reserved sum. *)
    Vtime.adjust_active t.vt ~now:t.last_now ~delta:(-.delta_reserved)
  end;
  t.g_weight_sum <- t.g_weight_sum +. delta_reserved

let add_guaranteed t ~flow ~clock_rate_bps =
  if clock_rate_bps <= 0. then
    invalid_arg "Csz_sched.add_guaranteed: non-positive clock rate";
  if g_weight_of t flow > 0. then
    invalid_arg
      (Printf.sprintf "Csz_sched.add_guaranteed: flow %d already guaranteed"
         flow);
  if t.g_weight_sum +. clock_rate_bps >= t.cfg.link_rate_bps then
    invalid_arg "Csz_sched.add_guaranteed: flow 0 would have no bandwidth";
  if flow < Array.length t.flow_cls then t.flow_cls.(flow) <- -1;
  resize_flow0 t ~delta_reserved:clock_rate_bps;
  grow_g t (flow + 1);
  let gf = t.gf in
  gf.g_weight.(flow) <- clock_rate_bps;
  (* An earlier reservation of this id may have left a tag in the current
     busy period; the new one starts without. *)
  Vtime.set_finish t.vt ~slot:(flow + 1) 0.;
  gf.g_qlen.(flow) <- 0;
  gf.g_retiring.(flow) <- false

let remove_guaranteed t ~flow =
  let w = g_weight_of t flow in
  if w <= 0. then invalid_arg "Csz_sched.remove_guaranteed: unknown flow"
  else if t.gf.g_qlen.(flow) > 0 then
    (* Queued packets keep their reservation until they drain; the flow
       is unregistered by the dequeue path at that point. *)
    t.gf.g_retiring.(flow) <- true
  else begin
    t.gf.g_weight.(flow) <- 0.;
    resize_flow0 t ~delta_reserved:(-.w)
  end

let is_guaranteed t ~flow = flow >= 0 && g_weight_of t flow > 0.

let set_predicted t ~flow ~cls =
  if cls < 0 || cls >= t.cfg.n_predicted_classes then
    invalid_arg "Csz_sched.set_predicted: class out of range";
  if g_weight_of t flow > 0. then
    invalid_arg "Csz_sched.set_predicted: flow is guaranteed";
  grow_cls t (flow + 1);
  t.flow_cls.(flow) <- cls

let clear_predicted t ~flow =
  if flow < Array.length t.flow_cls then t.flow_cls.(flow) <- -1
