(** Play-back point clients (the application taxonomy of Section 2).

    A play-back application buffers arriving data and replays it at a fixed
    offset — the play-back point — behind the source clock.  A packet whose
    network delay exceeds the current play-back point misses its deadline
    and is lost to the application.

    - A {e rigid} client fixes the point once, from the a-priori bound the
      network advertised, and never moves it.
    - An {e adaptive} client re-estimates the point periodically from
      measured delays, gambling that the recent past predicts the near
      future; it achieves a much lower average play-back point (hence
      better interactivity) at the cost of occasional losses when network
      conditions shift — exactly the trade the paper's predicted service is
      designed around. *)

type mode =
  | Rigid of float
      (** Fixed play-back point in seconds (the advertised bound). *)
  | Adaptive of {
      estimator : Estimator.t;
      update_every : int;  (** Re-estimate after this many packets. *)
    }

type t

val rigid : bound:float -> t

val adaptive :
  ?window:int -> ?quantile:float -> ?margin:float -> ?update_every:int ->
  unit -> t
(** Windowed-quantile adaptation (the default {!Delay_estimator});
    [update_every] defaults to 50 packets. *)

val adaptive_vat : ?update_every:int -> unit -> t
(** VAT-style adaptation ({!Vat_estimator} with its defaults). *)

val receive : t -> delay:float -> unit
(** Deliver one packet with the given end-to-end delay. *)

val received : t -> int
val missed : t -> int
(** Packets that arrived after the play-back point. *)

val loss_rate : t -> float
val playback_point : t -> float
(** The point currently in force. *)

val mean_playback_point : t -> float
(** Packet-averaged play-back point over the whole run — the paper's measure
    of the delay an application actually suffers. *)
