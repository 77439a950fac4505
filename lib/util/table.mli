(** Plain-text table rendering for experiment reports.

    The benchmark harness prints reproductions of the paper's Tables 1-3 in
    the same row/column layout; this module does the column sizing. *)

val render : header:string list -> rows:string list list -> unit -> string
(** [render ~header ~rows ()] lays the table out with two-space gutters and a
    dashed rule under the header, the first column left-aligned and the
    rest right-aligned.  Short rows are padded with empty cells. *)

val fmt_float : ?decimals:int -> float -> string
(** Fixed-point formatting used for delay values (default 2 decimals). *)
