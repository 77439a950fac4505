(** Packets — int handles into a per-domain struct-of-arrays arena.

    A packet is a dense index into parallel arrays (one per field) held in
    domain-local storage, recycled through a free list: {!make} takes a
    slot, {!free} releases it when the packet dies (delivered to a sink,
    dropped, or consumed by a transport).  Field access is plain array
    indexing, so the per-hop float stores are unboxed (a mutable float
    field of the old mixed record boxed on every store).  Take/release
    counters mirror the link buffer pools and are audited by
    [Ispn_check.Audit] ({!pool_stats}).

    Besides addressing, a packet carries the two header fields the CSZ
    mechanism needs:

    - [offset] — the FIFO+ jitter-offset field (Section 6): the accumulated
      difference between this packet's per-hop queueing delays and the
      average delay of its sharing class at each hop.  The paper proposes
      this field become part of the packet header; here it is a float cell.
    - [qdelay_total] — bookkeeping (not a real header field): the summed
      queueing (waiting) delay across hops, which is exactly the quantity
      Tables 1-3 report per flow.

    Handles are ordinary ints so the arena arrays can be indexed directly,
    but their VALUES are allocation-history-dependent and differ across
    [-j] widths: never order, hash, or print by handle — use [flow]/[seq].
    Each simulation runs inside one [Ispn_exec.Pool] domain, so handles
    never cross domains. *)

type kind =
  | Data
  | Ack  (** Transport acknowledgment (used by the TCP substrate). *)

type t = int
(** A packet handle.  Handle [0] is the permanent dummy ({!dummy}). *)

(** The domain-local arena, exposed so hot paths (schedulers, links) can
    bind it once at construction and touch fields as raw array accesses —
    [a.Packet.enqueued_at.(p) <- now] is an unboxed store, whereas a
    float-returning accessor would box at every call (see "Hot-path
    discipline", DESIGN.md §5).  The array fields are replaced wholesale
    on growth, so always index through the arena record, never through a
    saved array. *)
type arena = {
  mutable flow : int array;  (** Flow identifier; switches route on it. *)
  mutable seq : int array;  (** Per-flow sequence number. *)
  mutable size_bits : int array;
  mutable kind : kind array;
  mutable created : float array;  (** Generation time at the source. *)
  mutable offset : float array;  (** FIFO+ jitter-offset header field. *)
  mutable qdelay_total : float array;
      (** Accumulated queueing delay (seconds). *)
  mutable enqueued_at : float array;
      (** Arrival time at the current hop. *)
  mutable hops : int array;  (** Switches traversed so far. *)
  mutable route : int array;
      (** The flow's slot in its network's forwarding table ([Fwd]), or
          -1 until the first switch resolves it.  A slot depends on the
          install order: never print, order or hash by it. *)
  mutable alive : bool array;  (** Slot allocated and not yet freed. *)
  mutable free_list : int array;
  mutable free_len : int;
  mutable used : int;
  mutable takes : int;
  mutable releases : int;
  mutable in_use : int;
  mutable hwm : int;
  mutable bad_frees : int;
}

val arena : unit -> arena
(** This domain's arena.  Bind once per scheduler/link instance (they are
    created in the domain that uses them); cold paths can just call the
    per-field accessors below. *)

val make :
  flow:int -> seq:int -> ?size_bits:int -> ?kind:kind -> created:float ->
  unit -> t
(** Allocate a packet (free-list pop or arena growth).  [size_bits]
    defaults to {!Ispn_util.Units.packet_bits}; [offset], [qdelay_total]
    and [hops] start at zero, [enqueued_at] at [created], [route] at -1. *)

val free : t -> unit
(** Release the slot for reuse.  Freeing the dummy is a no-op; freeing an
    already-free slot is counted in [bad_frees] (audited to zero) rather
    than corrupting the free list.  The packet's fields must not be
    touched afterwards. *)

type mark
(** The set of this domain's live handles at one instant. *)

val mark : unit -> mark
(** Take a {!mark} now. *)

val free_since : mark -> unit
(** [free_since m] frees every handle that is live now but was not at
    [m]: the packets a finished simulation left in flight (queued at a
    link, on the wire, in a scheduled delivery), which nothing else will
    free.  Handles live at [m] are left alone, so packets that earlier
    work on this domain still holds survive.  Linear in the arena's
    size. *)

val dummy : unit -> t
(** The permanent dummy handle (0), the initial value of a packet field
    that is read only once a real packet is stored in it (a link's packet
    in transmission, CSZ's committed flow-0 head); it is never enqueued,
    transmitted, or freed. *)

(** {2 Field accessors}

    Convenient for cold paths; float getters box their result, so code
    running per packet per hop should go through {!arena} instead. *)

val flow : t -> int
val seq : t -> int
val size_bits : t -> int
val kind : t -> kind
val created : t -> float
val offset : t -> float
val qdelay_total : t -> float
val hops : t -> int
val set_offset : t -> float -> unit
val set_qdelay_total : t -> float -> unit
val set_enqueued_at : t -> float -> unit
val set_hops : t -> int -> unit

(** {2 Pool accounting} *)

type pool_stats = {
  p_takes : int;  (** Successful {!make}s since domain start. *)
  p_releases : int;  (** {!free}s of live slots. *)
  p_in_use : int;  (** Live handles now; [takes - releases] always. *)
  p_hwm : int;  (** High-water mark of [in_use]. *)
  p_capacity : int;  (** Current arena capacity (slots). *)
  p_bad_frees : int;  (** Frees of dead slots — must stay zero. *)
}

val pool_stats : unit -> pool_stats
(** Snapshot of this domain's arena counters.  Counters are cumulative
    across the simulations a domain has run, so consumers (audit,
    metrics) must compare against a baseline captured at run start to
    stay [-j]-independent. *)
