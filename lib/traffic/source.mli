(** Common shape of a traffic generator.

    A source, once started, schedules its own packet emissions on the engine
    and hands each packet to the [emit] callback it was built with (typically
    a token-bucket filter feeding a network ingress switch). *)

type t = {
  start : unit -> unit;  (** Begin generating at the current sim time. *)
  stop : unit -> unit;  (** Cease generating; idempotent. *)
  generated : unit -> int;  (** Packets emitted so far. *)
}
