(* Slot state is two dense arrays plus a free stack, all ints and bools,
   so take/release are allocation-free once the pool is warm (pinned by
   test/test_budget.ml).  The free stack is LIFO: the most recently
   released slot is reused first, which keeps the active range dense and
   exercises recycling as hard as possible.  Slots never taken are
   [fresh .. cap - 1]: not on the stack, handed out lowest first once it
   is empty, and given storage only then, so creating a pool costs O(1)
   whatever its capacity. *)

type t = {
  id_base : int;
  mutable cap : int;  (* slots in the id range; doubles when all are taken *)
  mutable gen : int array;  (* per slot below [fresh], bumped on release *)
  mutable taken : bool array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;  (* number of valid entries in [free] *)
  mutable fresh : int;  (* lowest slot never taken *)
  mutable n_takes : int;
  mutable n_releases : int;
  mutable n_bad : int;
  mutable n_stale : int;
  mutable peak : int;
}

let create ?(base = 0) ?(capacity = 64) () =
  if base < 0 then invalid_arg "Idpool.create: negative base";
  if capacity <= 0 then invalid_arg "Idpool.create: non-positive capacity";
  {
    id_base = base;
    cap = capacity;
    gen = [||];
    taken = [||];
    free = [||];
    free_top = 0;
    fresh = 0;
    n_takes = 0;
    n_releases = 0;
    n_bad = 0;
    n_stale = 0;
    peak = 0;
  }

let base t = t.id_base
let capacity t = t.cap
let in_use t = t.n_takes - t.n_releases
let takes t = t.n_takes
let releases t = t.n_releases
let hwm t = t.peak
let bad_releases t = t.n_bad
let stale_releases t = t.n_stale

(* Only called with the stack empty and every stored slot taken, so
   nothing on the stack needs copying. *)
let grow_storage t =
  let old = Array.length t.gen in
  let n = Stdlib.max 16 (2 * old) in
  let gen = Array.make n 0 in
  let taken = Array.make n false in
  Array.blit t.gen 0 gen 0 old;
  Array.blit t.taken 0 taken 0 old;
  t.gen <- gen;
  t.taken <- taken;
  t.free <- Array.make n 0

let take t =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      let slot = t.fresh in
      if slot = t.cap then t.cap <- 2 * t.cap;
      if slot = Array.length t.gen then grow_storage t;
      t.fresh <- slot + 1;
      slot
    end
  in
  t.taken.(slot) <- true;
  t.n_takes <- t.n_takes + 1;
  let live = t.n_takes - t.n_releases in
  if live > t.peak then t.peak <- live;
  t.id_base + slot

(* The slot of a once-taken [id], or -1: a slot never taken is not taken. *)
let slot_of t ~id =
  let s = id - t.id_base in
  if s < 0 || s >= t.fresh then -1 else s

let release t ~id =
  let s = slot_of t ~id in
  if s < 0 || not t.taken.(s) then t.n_bad <- t.n_bad + 1
  else begin
    t.taken.(s) <- false;
    t.gen.(s) <- t.gen.(s) + 1;
    t.free.(t.free_top) <- s;
    t.free_top <- t.free_top + 1;
    t.n_releases <- t.n_releases + 1
  end

let try_release t ~id ~gen =
  let s = slot_of t ~id in
  if s >= 0 && t.taken.(s) && t.gen.(s) = gen then begin
    release t ~id;
    true
  end
  else begin
    t.n_stale <- t.n_stale + 1;
    false
  end

let generation t ~id =
  let s = id - t.id_base in
  if s < 0 || s >= t.cap then
    invalid_arg (Printf.sprintf "Idpool.generation: id %d" id);
  if s < t.fresh then t.gen.(s) else 0

let is_taken t ~id =
  let s = slot_of t ~id in
  s >= 0 && t.taken.(s)
