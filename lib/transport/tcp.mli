(** Tahoe-style TCP connection over the simulated network.

    Table 3's workload adds "2 datagram TCP connections" that soak up the
    bandwidth left over by the real-time classes; the paper reports >99%
    total utilization with a ~0.1% datagram drop rate.  This module provides
    a window-based sender with slow start, congestion avoidance, fast
    retransmit on three duplicate acks (Tahoe: window back to one segment),
    exponential-backoff retransmission timeouts with Jacobson/Karels RTT
    estimation, and a cumulative-ack receiver with out-of-order buffering.

    The sender is a greedy "infinite file" source.  Acknowledgments return
    on an uncongested reverse path (a fixed [ack_delay]), consistent with
    the paper's setup where all data traffic flows in one direction. *)

type flavor =
  | Tahoe  (** Loss always collapses the window to one segment. *)
  | Reno
      (** Fast recovery: on three duplicate acks, halve the window, inflate
          it while dupacks arrive, and keep new data flowing instead of
          rewinding (RFC 2581-style; multiple losses in one window still
          fall back to a timeout, as in classic Reno). *)

type config = {
  flavor : flavor;  (** Default [Tahoe] (period-appropriate for 1992). *)
  packet_bits : int;  (** Segment size on the wire (default 1000). *)
  max_window : int;  (** Receiver window in segments (default 64). *)
  init_ssthresh : int;  (** Initial slow-start threshold (default 32). *)
  min_rto : float;  (** RTO floor in seconds (default 0.1). *)
  max_rto : float;  (** RTO ceiling in seconds (default 60.0). *)
  ack_delay : float;  (** Reverse-path latency in seconds (default 1e-3). *)
}

val default_config : config

type t

val create :
  engine:Ispn_sim.Engine.t ->
  flow:int ->
  ?config:config ->
  send:(Ispn_sim.Packet.t -> unit) ->
  unit ->
  t
(** [send] injects a data segment into the network (typically
    [Network.inject]).  Wire the other side with {!receive} as the flow's
    sink before calling {!start}. *)

val receive : t -> Ispn_sim.Packet.t -> unit
(** Deliver a packet that reached the receiving end. *)

val start : t -> unit
(** Open the connection and start transmitting. *)

val stop : t -> unit
(** Freeze the sender (pending timers are disarmed). *)

(** {2 Accounting} *)

val segments_sent : t -> int
(** Segments put on the wire, including retransmissions. *)

val retransmissions : t -> int
val delivered : t -> int
(** Distinct segments delivered in order to the receiving application. *)

val fast_recoveries : t -> int
(** Times fast retransmit fired: window halvings under Reno, collapses
    under Tahoe. *)

val cwnd : t -> float
(** Current congestion window in segments. *)

val goodput_bps : t -> elapsed:float -> float
(** Application-level throughput over [elapsed] seconds. *)

val loss_rate : t -> float
(** [retransmissions / segments_sent] — the sender's estimate of the network
    drop rate. *)
