(** The service interface (Section 8).

    Two request shapes exist.  A {e guaranteed} client only names the clock
    rate [r] it wants — the network guarantees the rate and does no
    conformance check, because the client made no traffic commitment; the
    client computes its own worst-case delay from its known [b(r)].  A
    {e predicted} client declares both its traffic, as an [(r, b)] token
    bucket which the edge enforces, and the service it wants, as a delay
    target [D] and loss tolerance [L]; the network maps the flow onto a
    priority class at each switch.  Datagram traffic requests nothing. *)

type bucket = { rate_bps : float; depth_bits : float }
(** A token-bucket traffic characterization. *)

val bucket : rate_pps:float -> depth_packets:float -> unit -> bucket
(** Convenience constructor in the paper's packet units (e.g. [(A, 50)]),
    [Units.packet_bits] to the packet. *)

type request =
  | Guaranteed of { clock_rate_bps : float }
  | Predicted of {
      bucket : bucket;
      target_delay : float;  (** [D], seconds, per-switch target. *)
      target_loss : float;  (** [L], fraction. *)
    }
  | Datagram

val is_realtime : request -> bool
(** True for guaranteed and predicted requests. *)

val class_targets : float array
(** The per-switch predicted-service delay targets [D_j] in seconds:
    8 ms for class 0 (highest priority) and 64 ms for class 1, two widely
    spaced classes roughly an order of magnitude apart, as Section 7
    recommends.  Every admission controller, meter and advertised bound
    reads this one array; nothing writes it. *)
