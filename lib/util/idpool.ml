(* Slot state is two dense arrays plus a free stack, all ints and bools,
   so take/release are allocation-free once the pool is warm (pinned by
   test/test_budget.ml).  The free stack is LIFO: the most recently
   released slot is reused first, which keeps the active range dense and
   exercises recycling as hard as possible.  Slots never taken are
   [fresh .. cap - 1]: not on the stack, handed out lowest first once it
   is empty, and given storage only then, so creating a pool costs O(1)
   whatever its capacity. *)

type t = {
  mutable cap : int;  (* slots in the id range; doubles when all are taken *)
  mutable taken : bool array;
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;  (* number of valid entries in [free] *)
  mutable fresh : int;  (* lowest slot never taken *)
  mutable n_takes : int;
  mutable n_releases : int;
  mutable n_bad : int;
  mutable peak : int;
}

let create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Idpool.create: non-positive capacity";
  {
    cap = capacity;
    taken = [||];
    free = [||];
    free_top = 0;
    fresh = 0;
    n_takes = 0;
    n_releases = 0;
    n_bad = 0;
    peak = 0;
  }

let capacity t = t.cap
let in_use t = t.n_takes - t.n_releases
let takes t = t.n_takes
let releases t = t.n_releases
let hwm t = t.peak
let bad_releases t = t.n_bad

(* Only called with the stack empty and every stored slot taken, so
   nothing on the stack needs copying. *)
let grow_storage t =
  let old = Array.length t.taken in
  let n = Stdlib.max 16 (2 * old) in
  let taken = Array.make n false in
  Array.blit t.taken 0 taken 0 old;
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
      if slot = Array.length t.taken then grow_storage t;
      t.fresh <- slot + 1;
      slot
    end
  in
  t.taken.(slot) <- true;
  t.n_takes <- t.n_takes + 1;
  let live = t.n_takes - t.n_releases in
  if live > t.peak then t.peak <- live;
  slot

(* Slots from [fresh] on were never taken, so have no storage yet. *)
let is_taken t ~id = id >= 0 && id < t.fresh && t.taken.(id)

let release t ~id =
  if not (is_taken t ~id) then t.n_bad <- t.n_bad + 1
  else begin
    t.taken.(id) <- false;
    t.free.(t.free_top) <- id;
    t.free_top <- t.free_top + 1;
    t.n_releases <- t.n_releases + 1
  end
