open Ispn_sim

(* Segment size on the wire; receiver window and initial slow-start
   threshold in segments; RTO floor and ceiling and reverse-path latency
   in seconds. *)
let packet_bits = Ispn_util.Units.packet_bits
let max_window = 64
let init_ssthresh = 32.
let min_rto = 0.1
let max_rto = 60.0
let ack_delay = 1e-3

type t = {
  engine : Engine.t;
  flow : int;
  send : Packet.t -> unit;
  (* Sender state. *)
  mutable running : bool;
  mutable una : int;  (* lowest unacknowledged sequence number *)
  mutable next : int;  (* next sequence number to transmit *)
  mutable cwnd : float;  (* congestion window, segments *)
  mutable ssthresh : float;
  mutable dupacks : int;
  mutable timer : Engine.handle option;
  mutable rto : float;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable timed_seq : int option;  (* Karn: time only fresh transmissions *)
  mutable timed_at : float;
  mutable segments_sent : int;
  mutable retransmissions : int;
  (* Receiver state. *)
  mutable rcv_next : int;  (* all seq < rcv_next delivered in order *)
  ooo : (int, unit) Hashtbl.t;  (* out-of-order segments held back *)
  mutable delivered : int;
}

let create ~engine ~flow ~send () =
  {
    engine;
    flow;
    send;
    running = false;
    una = 0;
    next = 0;
    cwnd = 1.;
    ssthresh = init_ssthresh;
    dupacks = 0;
    timer = None;
    rto = 1.0;
    srtt = None;
    rttvar = 0.;
    timed_seq = None;
    timed_at = 0.;
    segments_sent = 0;
    retransmissions = 0;
    rcv_next = 0;
    ooo = Hashtbl.create 64;
    delivered = 0;
  }

let disarm_timer t =
  match t.timer with
  | Some h ->
      Engine.cancel t.engine h;
      t.timer <- None
  | None -> ()

let effective_window t =
  Stdlib.min (int_of_float t.cwnd) max_window |> Stdlib.max 1

let transmit t seq ~fresh =
  let now = Engine.now t.engine in
  let pkt =
    Packet.make ~flow:t.flow ~seq ~size_bits:packet_bits ~created:now ()
  in
  t.segments_sent <- t.segments_sent + 1;
  if not fresh then t.retransmissions <- t.retransmissions + 1;
  (* RTT-sample one segment at a time; retransmitted sequence numbers are
     never timed (Karn's rule). *)
  if fresh && t.timed_seq = None then begin
    t.timed_seq <- Some seq;
    t.timed_at <- now
  end;
  t.send pkt

let rec arm_timer t =
  disarm_timer t;
  if t.una < t.next && t.running then
    t.timer <-
      Some (Engine.schedule_after t.engine ~delay:t.rto (fun () -> on_timeout t))

and on_timeout t =
  t.timer <- None;
  if t.running && t.una < t.next then begin
    t.ssthresh <- Stdlib.max (t.cwnd /. 2.) 2.;
    t.cwnd <- 1.;
    t.dupacks <- 0;
    t.rto <- Stdlib.min (2. *. t.rto) max_rto;
    t.timed_seq <- None;
    (* Go-back-N: rewind and let the window re-send from the hole. *)
    t.next <- t.una;
    transmit t t.next ~fresh:false;
    t.next <- t.next + 1;
    arm_timer t
  end

let try_send t =
  if t.running then begin
    let window = effective_window t in
    while t.next < t.una + window do
      transmit t t.next ~fresh:true;
      t.next <- t.next + 1
    done;
    if t.timer = None then arm_timer t
  end

let update_rtt t ~sample =
  (match t.srtt with
  | None ->
      t.srtt <- Some sample;
      t.rttvar <- sample /. 2.
  | Some srtt ->
      let err = sample -. srtt in
      t.srtt <- Some (srtt +. (0.125 *. err));
      t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar)));
  let srtt = Option.get t.srtt in
  t.rto <-
    Stdlib.min max_rto (Stdlib.max min_rto (srtt +. (4. *. t.rttvar)))

(* Tahoe: collapse the window and go back N from the hole. *)
let fast_retransmit t =
  t.ssthresh <- Stdlib.max (t.cwnd /. 2.) 2.;
  t.timed_seq <- None;
  t.cwnd <- 1.;
  t.dupacks <- 0;
  t.next <- t.una;
  transmit t t.next ~fresh:false;
  t.next <- t.next + 1;
  arm_timer t;
  try_send t

let on_ack t ack =
  if not t.running then ()
  else if ack > t.una then begin
    let n_acked = ack - t.una in
    t.una <- ack;
    t.dupacks <- 0;
    (match t.timed_seq with
    | Some seq when ack > seq ->
        update_rtt t ~sample:(Engine.now t.engine -. t.timed_at);
        t.timed_seq <- None
    | Some _ | None -> ());
    (* Slow start: one segment per ack; congestion avoidance: one segment
       per window's worth of acks. *)
    for _ = 1 to n_acked do
      if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
      else t.cwnd <- t.cwnd +. (1. /. t.cwnd)
    done;
    if t.una = t.next then disarm_timer t else arm_timer t;
    try_send t
  end
  else begin
    t.dupacks <- t.dupacks + 1;
    if t.dupacks = 3 then fast_retransmit t
  end

let receive t pkt =
  let seq = Packet.seq pkt in
  (* The data segment dies at the receiver; the ack is modelled as a pure
     event (no packet travels back). *)
  Packet.free pkt;
  if seq >= t.rcv_next then Hashtbl.replace t.ooo seq ();
  while Hashtbl.mem t.ooo t.rcv_next do
    Hashtbl.remove t.ooo t.rcv_next;
    t.rcv_next <- t.rcv_next + 1;
    t.delivered <- t.delivered + 1
  done;
  let ack = t.rcv_next in
  ignore
    (Engine.schedule_after t.engine ~delay:ack_delay (fun () ->
         on_ack t ack))

let start t =
  if not t.running then begin
    t.running <- true;
    try_send t
  end

let segments_sent t = t.segments_sent
let retransmissions t = t.retransmissions
let delivered t = t.delivered
let cwnd t = t.cwnd

let goodput_bps t ~elapsed =
  if elapsed <= 0. then 0.
  else float_of_int (t.delivered * packet_bits) /. elapsed

let loss_rate t =
  if t.segments_sent = 0 then 0.
  else float_of_int t.retransmissions /. float_of_int t.segments_sent
