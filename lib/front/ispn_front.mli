(** The command-line front-end of both executables.  [bench/main.exe] and
    [bin/ispn_sim.exe] take every {!Csz.Section.flag} as the one option
    defined here, validate it in {!Csz.Section.ctx}, and fail the same way:
    bad input prints [<tool>: <message>] on stderr and exits 2. *)

open Cmdliner

type params = {
  ctx : Csz.Section.ctx;
  metrics : string option;  (** [--metrics FILE]. *)
  series : string option;  (** [--series FILE]. *)
}

val params :
  ?trace_cap:int option Term.t -> Csz.Section.flag list -> params Term.t
(** Exactly one option per flag in the list; a flag not in it keeps its
    {!Csz.Section.ctx} default, which is also each option's documented
    default.  [--fast] overrides [--duration] with 60 s, [--debug] turns
    debug logs to stderr on, and [trace_cap] (default: none) supplies the
    flight-recorder capacity.  A value {!Csz.Section.ctx} rejects is a
    command-line error. *)

val guard : (unit -> unit) -> unit Term.ret
(** [guard f] runs [f] and turns an [Invalid_argument] it raises (a
    section's out-of-range ctx) into a command-line error. *)

val section_cmd : Csz.Section.t -> unit Cmd.t
(** The subcommand of a registry entry: its name, doc and declared flags;
    stdout is {!Csz.Section.render}, then {!Csz.Section.finish}. *)

val eval : unit Cmd.t -> 'a
(** Evaluate the command and exit: 0 on success, 1 on audit violations,
    2 on bad input — cmdliner's parse errors (124) included. *)
