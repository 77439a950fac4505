(** Token-bucket traffic filter (Section 4).

    A bucket fills with tokens at rate [r] up to depth [b]; a packet of size
    [p] conforms iff the bucket holds at least [p] tokens, which the packet
    then consumes.  This is exactly the paper's definition
    [n_i = min (b, n_{i-1} + (t_i - t_{i-1}) r - p_i) >= 0].

    Enforcement happens only at the network edge (first switch): the
    Appendix drops nonconforming packets at the source, and Section 8
    explains why conformance is never re-checked at later switches.  The
    paper's sources are policed by an [(A, 50 packets)] bucket, dropping
    about 2% of generated packets. *)

type t

val create : rate_bps:float -> depth_bits:float -> unit -> t
(** The bucket starts full. *)

val conforms : t -> now:float -> bits:int -> bool
(** Refill up to [now]; if at least [bits] tokens are present, consume them
    and return [true], else leave the bucket unchanged and return [false].
    [now] must not go backwards. *)

val level_bits : t -> now:float -> float
(** Tokens currently in the bucket (after refill to [now]). *)

val wait_s : t -> bits:int -> float
(** Seconds from the last refill until the bucket holds [bits] tokens:
    the time a refused packet of that size waits for conformance ([<= 0.]
    when it would conform now).  Does not refill. *)

type mode =
  | Drop  (** Discard nonconforming packets (the Appendix behaviour). *)
  | Pass  (** Count violations but forward anyway (monitoring only). *)

type policer

val policer :
  engine:Ispn_sim.Engine.t -> bucket:t -> mode:mode ->
  next:(Ispn_sim.Packet.t -> unit) -> policer

val police : policer -> Ispn_sim.Packet.t -> unit
(** Feed one packet through the filter. *)

val admit_fn : policer -> Ispn_sim.Packet.t -> unit
(** [police] partially applied, shaped for use as a source's [emit]. *)

val offered : policer -> int
val dropped : policer -> int
val violations : policer -> int
(** Nonconforming packets seen (equals [dropped] in [Drop] mode). *)
