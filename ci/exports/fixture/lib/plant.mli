val used : int -> int
(** Called by bin/: not a finding. *)

val test_only : int -> int
(** Called by test/ only: a finding. *)

val scale : ?factor:int -> ?offset:int -> int -> int
(** Called by bin/ with [~offset] only: [?factor] is a finding. *)
