(** Units and constants of the paper's simulation setup (Appendix).

    All inter-switch links run at 1 Mbit/s, all packets are 1000 bits, all
    switch buffers hold 200 packets, and delays are reported in units of the
    per-packet transmission time (1 ms). *)

val link_rate_bps : float
(** 1 Mbit/s, the paper's inter-switch link bandwidth. *)

val packet_bits : int
(** 1000 bits, the paper's uniform packet size. *)

val buffer_packets : int
(** 200 packets of switch buffering per output link. *)

val sim_duration_s : float
(** 600 s — "simulations covering 10 minutes of simulated time". *)

val transmission_time : link_rate_bps:float -> packet_bits:int -> float
(** Seconds to serialize one packet. *)

val packet_times : link_rate_bps:float -> packet_bits:int -> float -> float
(** Convert a delay in seconds into per-packet transmission-time units (the
    unit of every delay number in the paper's tables). *)
