(** Deterministic fault plans.

    The paper argues (Section 2) for tolerant, adaptive real-time clients
    precisely because the network's condition changes under them; a fault
    plan is a replayable description of such condition changes.  A plan is
    plain data — a list of timed events against a topology's link indices —
    so experiments can log it, tests can hand-craft it, and the same plan
    always yields the same faults regardless of what the simulation itself
    does.  {!Inject.apply} turns a plan into scheduled engine events. *)

type event =
  | Link_down of { link : int; at : float; duration : float }
      (** Link [link] fails at time [at] and is repaired [duration] seconds
          later.  While down its transmitter is stopped and the in-flight
          frame is lost ({!Ispn_sim.Link.set_up}). *)
  | Corrupt of { link : int; from_ : float; until : float; per_packet : float }
      (** Between [from_] and [until], every packet delivered over [link]
          has its header corrupted with probability [per_packet]: one random
          bit of the {!Ispn_sim.Wire} encoding is flipped and the result
          re-decoded, exercising [Malformed] handling end to end. *)
  | Agent_crash of { switch : int; at : float }
      (** The reservation agent at [switch] crashes at [at], losing its soft
          state (admission book and scheduler registrations).  The injector
          only reports this to its [on_agent_crash] callback; the control
          plane (e.g. [Csz.Signaling.crash_agent]) does the forgetting. *)

type t = event list
(** Events in no particular order; {!Inject.apply} sorts them. *)

val none : t
(** The empty plan (a fault-free baseline run). *)
