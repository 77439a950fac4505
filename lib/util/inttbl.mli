(** Int-keyed hash table with open addressing.

    Keys and values sit in two flat arrays (linear probing, backward-shift
    deletion, at most half full), so [replace] of a new key allocates
    nothing once the table has grown to its working size — unlike
    [Hashtbl], which allocates a bucket cell per binding.  For per-session
    books on the control plane: signaling tokens, admission records.

    Any int but [min_int] is a key ([min_int] marks an empty slot). *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty table of 16 slots, so 8 bindings fit before the first
    resize.  [dummy] fills vacated value slots, so removed values are not
    kept alive. *)

val length : 'a t -> int
val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** Raises [Not_found] if the key is unbound. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any previous binding.  Raises
    [Invalid_argument] for [min_int]. *)

val remove : 'a t -> int -> unit
(** Unbinding an unbound key does nothing. *)

val clear : 'a t -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Over every binding, in an unspecified order; the function must not
    add or remove bindings. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every binding, in an unspecified order. *)
