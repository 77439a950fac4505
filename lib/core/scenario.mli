(** The paper's experimental configurations.

    Figure 1: five switches S-1..S-5 in a chain joined by four 1 Mbit/s
    links, each host attached by an infinitely fast link, all traffic
    flowing in the same direction.  22 statistically identical real-time
    flows cover the links so that every inter-switch link carries exactly
    10 flows: 12 flows of path length 1, 4 of length 2, 4 of length 3 and 2
    of length 4.

    For Table 3 the paper only states the per-link class mix (2
    Guaranteed-Peak, 1 Guaranteed-Average, 3 Predicted-High, 4
    Predicted-Low, plus one datagram connection); [table3_class_of] is the
    unique-up-to-symmetry assignment of classes to the 22 paths consistent
    with that mix and with the sample rows the paper prints (see
    DESIGN.md). *)

type flow_spec = { flow : int; ingress : int; egress : int }

val hops : flow_spec -> int
(** Inter-switch links traversed on a chain ([egress - ingress]) — the
    paper's "path length". *)

val figure1_flows : flow_spec list
(** The 22 flows, ids 0-21, in a fixed documented order: 0-1 have length 4,
    2-5 length 3, 6-9 length 2, 10-21 length 1. *)

val figure1_n_switches : int

val flows_on_link : int -> flow_spec list
(** Flows of {!figure1_flows} crossing inter-switch link [i] (0-based);
    always 10 of them. *)

(** {2 Declared runs} *)

type t = {
  n_switches : int;
  links : (int * int) list;  (** As {!Ispn_sim.Network.create} takes them. *)
  flows : flow_spec list;  (** Attached and reported in this order. *)
  avg_rate_pps : float;  (** Every flow's [A]. *)
}
(** One run for {!Experiment.run}: 1 Mbit/s links and the policed
    Appendix flows they carry. *)

val figure1 : ?avg_rate_pps:float -> unit -> t
(** The chain [(i, i+1)] of {!figure1_n_switches}, {!figure1_flows}. *)

val single_link : ?avg_rate_pps:float -> unit -> t
(** Table 1: one link shared by ten flows, ids 0-9. *)

(** {2 Table 3 service assignment} *)

type service_class =
  | Guaranteed_peak  (** Clock rate = peak generation rate [2A]. *)
  | Guaranteed_avg  (** Clock rate = average generation rate [A]. *)
  | Predicted_high  (** Priority class 0. *)
  | Predicted_low  (** Priority class 1. *)

val table3_class_of : int -> service_class
(** Service class of figure-1 flow [0..21]. *)

val table3_sample_flows : (string * int) list
(** The eight sample rows of Table 3 as [(label, flow id)], in the paper's
    order: Peak/4, Peak/2, Average/3, Average/1, High/4, High/2, Low/3,
    Low/1. *)

val table3_tcp_paths : (int * int) list
(** Ingress/egress switch of the two datagram TCP connections; they tile
    the chain so each link carries exactly one connection. *)

(** {2 Appendix parameters} *)

val default_avg_rate_pps : float
(** [A] = 85 packets/s. *)

val token_bucket_depth_packets : float
(** 50 packets. *)
