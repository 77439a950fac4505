(* Events live in a struct-of-arrays arena (time, action, generation) and
   are named by int handles — index in the low bits, the slot's generation
   above — so scheduling allocates nothing and a stale handle can never
   touch a recycled slot.  The pending set is an implicit 4-ary min-heap
   over two flat arrays: the float firing time (copied array-to-array
   from the arena, never boxed) and one int packing [seq lsl idx_bits lor
   slot], so comparing the int breaks time ties in scheduling order.

   Cancellation is lazy.  An armed slot has an even generation; [cancel]
   makes it odd, and an odd slot that surfaces at the root is skipped and
   recycled.  Firing adds two, so a fired slot is free and even again but
   its old handle no longer matches.  A re-armed timeout leaves one dead
   entry per re-arming until it surfaces, so once dead entries outnumber
   live ones by more than [slack], [cancel] compacts: one pass drops
   every dead entry, recycling its slot as the root skip does, and a
   Floyd re-heapify restores the order.  (time, seq) is a strict total
   order, so the firing order does not depend on the heap's shape. *)

type handle = int

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1

(* [seq lsl idx_bits] must stay a non-negative int. *)
let max_seq = (1 lsl (Sys.int_size - 1 - idx_bits)) - 1

type stats = { events_fired : int; cancels_skipped : int }

let nop () = ()

(* The clock sits in its own all-float record so updating it stores an
   unboxed float; as a mutable float field of the mixed record below every
   [fire] would box a fresh float. *)
type fclock = { mutable v : float }

type t = {
  clock : fclock;
  mutable live : int;
  mutable live_hwm : int;
  mutable fired : int;
  mutable skipped : int;
  mutable seq : int; (* next schedule stamp *)
  (* Pending heap, [len] entries.  Each queued entry pins its arena slot
     until it surfaces, so the heap never outgrows the arena and shares
     its capacity. *)
  mutable keys : float array;
  mutable seq_slots : int array;
  mutable len : int;
  (* Event arena. *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_len : int;
  mutable used : int; (* slots handed out at least once *)
}

let create () =
  {
    clock = { v = 0. };
    live = 0;
    live_hwm = 0;
    fired = 0;
    skipped = 0;
    seq = 0;
    keys = Array.make 64 0.;
    seq_slots = Array.make 64 0;
    len = 0;
    times = Array.make 64 0.;
    actions = Array.make 64 nop;
    gens = Array.make 64 0;
    free = Array.make 64 0;
    free_len = 0;
    used = 0;
  }

let stats t = { events_fired = t.fired; cancels_skipped = t.skipped }

let now t = t.clock.v

let grow_arena t =
  let old = Array.length t.times in
  let cap = 2 * old in
  if cap > idx_mask then failwith "Engine: event arena exceeds handle range";
  let grow a fill n =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.keys <- grow t.keys 0. t.len;
  t.seq_slots <- grow t.seq_slots 0 t.len;
  t.times <- grow t.times 0. old;
  t.actions <- grow t.actions nop old;
  t.gens <- grow t.gens 0 old;
  t.free <- grow t.free 0 t.free_len

let alloc_slot t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free.(t.free_len)
  end
  else begin
    if t.used = Array.length t.times then grow_arena t;
    let i = t.used in
    t.used <- i + 1;
    i
  end

(* Sift the new entry for slot [idx] up from the end of the heap.  The key
   is read from the arena into a local, so it stays an unboxed float. *)
let push t idx =
  let seq = t.seq in
  if seq > max_seq then failwith "Engine: event sequence exceeds handle range";
  t.seq <- seq + 1;
  let keys = t.keys and ss = t.seq_slots in
  let k = t.times.(idx) in
  let s = (seq lsl idx_bits) lor idx in
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = keys.(p) in
    (* A fresh stamp is larger than every queued one: on a tie with the
       parent the new entry stays below it. *)
    if k < pk then begin
      keys.(!i) <- pk;
      ss.(!i) <- ss.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- k;
  ss.(!i) <- s

(* Sift the entry at position [src] down a heap of [n] entries, starting
   from the hole at [hole].  The entry is read from the arrays here, so
   its key stays an unboxed float. *)
let sift_down (keys : float array) (ss : int array) ~n ~hole ~src =
  let k = keys.(src) and s = ss.(src) in
  let i = ref hole in
  let continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= n then continue := false
    else begin
      (* Least of up to four children. *)
      let m = ref c in
      let last = if c + 3 < n then c + 3 else n - 1 in
      for j = c + 1 to last do
        let kj = keys.(j) and km = keys.(!m) in
        if kj < km || (kj = km && ss.(j) < ss.(!m)) then m := j
      done;
      let mk = keys.(!m) in
      if mk < k || (mk = k && ss.(!m) < s) then begin
        keys.(!i) <- mk;
        ss.(!i) <- ss.(!m);
        i := !m
      end
      else continue := false
    end
  done;
  keys.(!i) <- k;
  ss.(!i) <- s

(* Recycle the slot of a cancelled (odd) entry taken off the heap. *)
let discard t idx =
  t.free.(t.free_len) <- idx;
  t.free_len <- t.free_len + 1;
  t.gens.(idx) <- t.gens.(idx) + 1;
  t.skipped <- t.skipped + 1

(* Dead entries [cancel] lets pile up beyond the live count before it
   compacts the heap. *)
let slack = 32

let compact t =
  let keys = t.keys and ss = t.seq_slots and gens = t.gens in
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    let s = ss.(i) in
    let idx = s land idx_mask in
    if gens.(idx) land 1 = 0 then begin
      keys.(!n) <- keys.(i);
      ss.(!n) <- s;
      incr n
    end
    else discard t idx
  done;
  let n = !n in
  t.len <- n;
  for i = (n - 2) / 4 downto 0 do
    sift_down keys ss ~n ~hole:i ~src:i
  done

let finish_schedule t idx action =
  t.actions.(idx) <- action;
  t.live <- t.live + 1;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  push t idx;
  (t.gens.(idx) lsl idx_bits) lor idx

(* Both entry points validate before allocating anything, so a rejected
   call leaves the arena, [pending] and its high-water mark untouched.
   [not (x >= y)] also rejects NaN, which would corrupt the heap order. *)
let schedule t ~at action =
  if not (at >= t.clock.v) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%g is not at or after now=%g" at
         t.clock.v);
  let idx = alloc_slot t in
  t.times.(idx) <- at;
  finish_schedule t idx action

let schedule_after t ~delay action =
  if not (delay >= 0.) then
    invalid_arg
      (Printf.sprintf "Engine.schedule_after: delay=%g is not >= 0" delay);
  (* Not [schedule ~at:(now +. delay)]: the sum is stored straight into
     the arena so it stays unboxed, and [delay >= 0] already implies the
     time is not in the past. *)
  let idx = alloc_slot t in
  t.times.(idx) <- t.clock.v +. delay;
  finish_schedule t idx action

(* Only an armed slot's (even) generation matches an outstanding handle;
   cancelling makes it odd, so any later cancel of the same handle, and
   one of a fired event, sees a mismatch and does nothing. *)
let cancel t h =
  let idx = h land idx_mask in
  if (t.gens.(idx) lsl idx_bits) lor idx = h then begin
    t.gens.(idx) <- t.gens.(idx) + 1;
    t.actions.(idx) <- nop;
    t.live <- t.live - 1;
    if t.len - t.live > t.live + slack then compact t
  end

let pending t = t.live
let heap_depth_hwm t = t.live_hwm

let register_metrics t m =
  let module M = Ispn_obs.Metrics in
  M.register_int m "engine.events_fired" (fun () -> t.fired);
  M.register_int m "engine.cancels_skipped" (fun () -> t.skipped);
  M.register_int m "engine.heap_depth_hwm" (fun () -> t.live_hwm);
  M.register_int m "engine.pending" (fun () -> t.live)

let attach_series t s =
  let interval = Ispn_obs.Series.interval s in
  let rec tick () =
    Ispn_obs.Series.sample s ~now:t.clock.v;
    ignore (schedule_after t ~delay:interval tick)
  in
  tick ()

(* Pop the root and fire it, or recycle it if it was cancelled.  The last
   entry fills the root's hole. *)
let fire_root t =
  let keys = t.keys and ss = t.seq_slots in
  let idx = ss.(0) land idx_mask in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then sift_down keys ss ~n ~hole:0 ~src:n;
  let g = t.gens.(idx) in
  if g land 1 = 0 then begin
    t.free.(t.free_len) <- idx;
    t.free_len <- t.free_len + 1;
    let action = t.actions.(idx) in
    t.clock.v <- t.times.(idx);
    t.gens.(idx) <- g + 2;
    t.actions.(idx) <- nop;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    action ()
  end
  else discard t idx

let run t ~until =
  while t.len > 0 && t.keys.(0) <= until do
    fire_root t
  done;
  if until > t.clock.v then t.clock.v <- until

let run_until_idle t ~max_events =
  let rec loop n =
    if n > max_events then failwith "Engine.run_until_idle: event budget blown"
    else if t.len > 0 then begin
      fire_root t;
      loop (n + 1)
    end
  in
  loop 0
