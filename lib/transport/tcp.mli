(** Tahoe-style TCP connection over the simulated network.

    Table 3's workload adds "2 datagram TCP connections" that soak up the
    bandwidth left over by the real-time classes; the paper reports >99%
    total utilization with a ~0.1% datagram drop rate.  This module provides
    a window-based sender with slow start, congestion avoidance, fast
    retransmit on three duplicate acks (Tahoe, period-appropriate for 1992:
    loss always collapses the window to one segment), exponential-backoff
    retransmission timeouts with Jacobson/Karels RTT estimation, and a
    cumulative-ack receiver with out-of-order buffering.

    The sender is a greedy "infinite file" source of [Units.packet_bits]
    segments, with a 64-segment receiver window, an initial slow-start
    threshold of 32 segments and an RTO between 0.1 s and 60 s.
    Acknowledgments return on an uncongested reverse path (a fixed 1 ms),
    consistent with the paper's setup where all data traffic flows in one
    direction. *)

type t

val create :
  engine:Ispn_sim.Engine.t ->
  flow:int ->
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

(** {2 Accounting} *)

val segments_sent : t -> int
(** Segments put on the wire, including retransmissions. *)

val retransmissions : t -> int
val delivered : t -> int
(** Distinct segments delivered in order to the receiving application. *)

val cwnd : t -> float
(** Current congestion window in segments. *)

val goodput_bps : t -> elapsed:float -> float
(** Application-level throughput over [elapsed] seconds. *)

val loss_rate : t -> float
(** [retransmissions / segments_sent] — the sender's estimate of the network
    drop rate. *)
