(** Flight recorder: a bounded, structured per-packet event trace.

    A ring of the most recent [capacity] events, stored as parallel scalar
    arrays (struct-of-arrays) so that recording overwrites slots in place —
    no allocation per event, no GC pressure, cheap enough to leave attached
    for a whole run.  This replaces the old string-based [Ispn_sim.Trace]:
    events carry typed fields (link, flow, sequence number, class, the
    FIFO+ offset header and a kind-dependent value) instead of formatted
    text, so consumers can attribute delay without parsing.

    Event schema, as [Ispn_sim.Link.attach_recorder] writes it (one hop =
    one link):

    - [Enqueue]  — packet accepted by the hop's qdisc; [value] is the
      packet's accumulated queueing delay {e before} this hop (0 at the
      first hop of its path).
    - [Dequeue]  — transmission begins; [value] is this hop's queueing
      (waiting) delay in seconds.
    - [Tx_start] — same instant as [Dequeue]; [value] is the transmission
      time [size_bits / rate_bps].
    - [Deliver]  — handed to the hop's receiver (after propagation);
      [value] is the packet's accumulated queueing delay {e including}
      this hop.
    - [Drop]     — lost at this hop; [cause] says why.

    [cls] is the scheduling class where the emitter knows it and [-1]
    otherwise; [offset] is the packet's FIFO+ jitter-offset header at the
    time of the event. *)

type kind = Enqueue | Dequeue | Tx_start | Deliver | Drop
type cause = No_cause | Buffer | Down | Wire

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 65536 events.  The ring keeps the newest events. *)

val record :
  t ->
  time:float ->
  kind:kind ->
  link:int ->
  flow:int ->
  seq:int ->
  cls:int ->
  offset:float ->
  value:float ->
  cause:cause ->
  unit

type event = {
  time : float;
  kind : kind;
  link : int;
  flow : int;
  seq : int;
  cls : int;
  offset : float;
  value : float;
  cause : cause;
}

val events : t -> event list
(** Oldest surviving event first. *)

val iter : t -> (event -> unit) -> unit
(** Like {!events}, without materializing the list. *)

val length : t -> int
val capacity : t -> int

val kind_name : kind -> string
val cause_name : cause -> string

val to_csv : t -> string
(** The surviving ring, oldest first, as CSV with one typed column per
    event field — [time,kind,link,flow,seq,cls,offset,value,cause], kind
    and cause by {!kind_name}/{!cause_name}, floats as ["%.9g"] — so a
    dumped trace can be analyzed offline without parsing formatted text.
    Note the packet handle itself is {e not} a column: handles are
    allocation-history-dependent and must never be printed; (flow, seq)
    is the stable identity. *)

val write_csv : string -> t -> unit
(** [write_csv path t] writes {!to_csv} to [path]. *)
