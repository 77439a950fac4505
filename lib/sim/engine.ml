(* Events live in a struct-of-arrays arena (time, action, generation) and
   are named by int handles — index in the low bits, the slot's generation
   above — so scheduling allocates nothing and a stale handle can never
   touch a recycled slot.  The pending set is two implicit 4-ary
   min-heaps, "near" and "far", each over two flat arrays: the float
   firing time (copied array-to-array from the arena, never boxed) and one
   int packing [seq lsl idx_bits lor slot], so comparing the int breaks
   time ties in scheduling order.  An event whose delay is below the
   running mean of every delay scheduled before it goes to the near heap,
   any other to the far one; the next event is the lesser of the two roots
   by (time, seq).  Fast link events then sift through a heap of their
   own kind instead of one swollen by slow timers, and the split changes
   only speed: (time, seq) is a strict total order, so the firing order
   is the same whichever heap holds an entry.  Lanes (below) feed the
   heaps one entry at a time from FIFO rings of pre-stamped entries, under
   the same order.

   Cancellation is lazy.  An armed slot has an even generation; [cancel]
   makes it odd, and an odd slot that surfaces at the root is skipped and
   recycled.  Firing adds two, so a fired slot is free and even again but
   its old handle no longer matches.  A fired slot keeps its action until
   the slot is reused: the next schedule overwrites it anyway, so an event
   costs one write barrier (its schedule's store) and not two.  A
   re-armed timeout leaves one dead entry per re-arming until it
   surfaces, so once dead entries outnumber live ones by more than
   [slack], [cancel] compacts: one pass drops every dead entry from both
   heaps, recycling its slot as the root skip does, and a Floyd
   re-heapify restores each heap's order.  The firing order does not
   depend on the heaps' shapes. *)

type handle = int

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1

(* [seq lsl idx_bits] must stay a non-negative int. *)
let max_seq = (1 lsl (Sys.int_size - 1 - idx_bits)) - 1

type stats = { events_fired : int; cancels_skipped : int }

let nop () = ()

(* The clock and the delay statistics sit in all-float records so
   updating them stores an unboxed float; as mutable float fields of the
   mixed record below every [fire] would box a fresh float. *)
type fclock = { mutable v : float }

(* Sum and count of every delay scheduled so far. *)
type delays = { mutable sum : float; mutable count : float }

(* One pending heap of [len] entries.  Its arrays grow when it is full,
   independently of the arena and of the other heap. *)
type heap = {
  mutable keys : float array;
  mutable seq_slots : int array;
  mutable len : int;
}

type t = {
  clock : fclock;
  delays : delays;
  mutable live : int;
  mutable live_hwm : int;
  mutable fired : int;
  mutable skipped : int;
  mutable seq : int; (* next schedule stamp *)
  mutable lane_queued : int; (* lane entries behind their lane's head *)
  (* Pending heaps.  Each queued entry pins its arena slot until it
     surfaces, so together they never outgrow the arena. *)
  near : heap;
  far : heap;
  (* Event arena. *)
  mutable times : float array;
  mutable actions : (unit -> unit) array;
  mutable gens : int array;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_len : int;
  mutable used : int; (* slots handed out at least once *)
}

let new_heap () =
  { keys = Array.make 64 0.; seq_slots = Array.make 64 0; len = 0 }

let create () =
  {
    clock = { v = 0. };
    delays = { sum = 0.; count = 0. };
    live = 0;
    live_hwm = 0;
    fired = 0;
    skipped = 0;
    seq = 0;
    lane_queued = 0;
    near = new_heap ();
    far = new_heap ();
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

let grow_heap h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0. and ss = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.len;
  Array.blit h.seq_slots 0 ss 0 h.len;
  h.keys <- keys;
  h.seq_slots <- ss

(* Take the next schedule stamp. *)
let[@inline] take_seq t =
  let seq = t.seq in
  if seq > max_seq then failwith "Engine: event sequence exceeds handle range";
  t.seq <- seq + 1;
  seq

(* Sift the entry for slot [idx], stamped [seq], up from the end of heap
   [h].  The key is read from the arena into a local, so it stays an
   unboxed float.  A time tie is broken on the stamp: a plain event's
   fresh stamp is above every queued one, but a lane head enters under the
   stamp it took when it was pushed. *)
let sift_up t h idx seq =
  if h.len = Array.length h.keys then grow_heap h;
  let keys = h.keys and ss = h.seq_slots in
  let k = t.times.(idx) in
  let s = (seq lsl idx_bits) lor idx in
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = keys.(p) in
    if k < pk || (k = pk && s < ss.(p)) then begin
      keys.(!i) <- pk;
      ss.(!i) <- ss.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- k;
  ss.(!i) <- s

(* 1 when entry [i] comes before entry [j] by (time, seq), else 0.  Built
   from comparison results, not branches, so picking the least of four
   children compiles to compares and sets with no jump to mispredict. *)
let[@inline] before (keys : float array) (ss : int array) i j =
  let ki = keys.(i) and kj = keys.(j) in
  Bool.to_int (ki < kj)
  lor (Bool.to_int (ki = kj) land Bool.to_int (ss.(i) < ss.(j)))

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
      (* Least of up to four children: a two-round tournament on a full
         node, a loop only on the last, partial level. *)
      let m =
        if c + 3 < n then begin
          let a = c + before keys ss (c + 1) c in
          let b = c + 2 + before keys ss (c + 3) (c + 2) in
          a + ((b - a) land -before keys ss b a)
        end
        else begin
          let m = ref c in
          for j = c + 1 to n - 1 do
            if before keys ss j !m = 1 then m := j
          done;
          !m
        end
      in
      let mk = keys.(m) in
      if mk < k || (mk = k && ss.(m) < s) then begin
        keys.(!i) <- mk;
        ss.(!i) <- ss.(m);
        i := m
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

let compact_heap t h =
  let keys = h.keys and ss = h.seq_slots and gens = t.gens in
  let n = ref 0 in
  for i = 0 to h.len - 1 do
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
  h.len <- n;
  for i = (n - 2) / 4 downto 0 do
    sift_down keys ss ~n ~hole:i ~src:i
  done

let compact t =
  compact_heap t t.near;
  compact_heap t t.far

(* The split test [delay < sum / count] is written without the division,
   so the first event, with no mean to compare against, goes far. *)
let finish_schedule t idx action =
  t.actions.(idx) <- action;
  t.live <- t.live + 1;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  let d = t.delays in
  let delay = t.times.(idx) -. t.clock.v in
  let h = if delay *. d.count < d.sum then t.near else t.far in
  d.sum <- d.sum +. delay;
  d.count <- d.count +. 1.;
  sift_up t h idx (take_seq t);
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
    (* Dead entries are the heaps' entries less their live ones; a lane
       entry behind its head is live but in no heap. *)
    if t.near.len + t.far.len - (t.live - t.lane_queued) > t.live + slack
    then compact t
  end

(* ---- lanes ---------------------------------------------------------- *)

(* A lane is a FIFO ring of (time, seq, payload) entries with one
   callback, kept in nondecreasing time.  Each entry takes its stamp when
   it is pushed, exactly as [schedule] would, so within a lane (time, seq)
   order is push order and only the head needs a heap entry: the head sits
   in the near or far heap under its own reserved (time, seq), and when it
   fires the next entry goes in under its own.  The heaps and the lanes
   then merge by the one strict (time, seq) order, and the firing order is
   the one the entries would have had as plain events.  An entry counts
   in [live] from its push, so [pending] and its high-water mark do not
   depend on which entries are in a heap. *)
type lane = {
  eng : t;
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_loads : int array;
  mutable l_head : int;
  mutable l_len : int;
  on_head : unit -> unit; (* the arena action of the head's heap entry *)
  on_fire : int -> unit;
}

(* Put the lane's head into a heap under its reserved stamp, by the same
   split rule as [finish_schedule] but without adding to the delay
   statistics: the entry's delay was counted when it was pushed. *)
let enter_head l =
  let t = l.eng in
  let i = l.l_head in
  let idx = alloc_slot t in
  t.times.(idx) <- l.l_times.(i);
  t.actions.(idx) <- l.on_head;
  let d = t.delays in
  let h =
    if (t.times.(idx) -. t.clock.v) *. d.count < d.sum then t.near else t.far
  in
  sift_up t h idx l.l_seqs.(i)

(* The head fired: pop it, let the next entry into a heap, then run the
   callback, which may push onto this lane again. *)
let fire_head l =
  let h = l.l_head in
  let payload = l.l_loads.(h) in
  l.l_head <- (h + 1) land (Array.length l.l_loads - 1);
  l.l_len <- l.l_len - 1;
  if l.l_len > 0 then begin
    l.eng.lane_queued <- l.eng.lane_queued - 1;
    enter_head l
  end;
  l.on_fire payload

let lane t on_fire =
  let rec l =
    {
      eng = t;
      l_times = [||];
      l_seqs = [||];
      l_loads = [||];
      l_head = 0;
      l_len = 0;
      on_head = (fun () -> fire_head l);
      on_fire;
    }
  in
  l

(* Double the ring, unrolling it so the head is at 0.  The capacity stays
   a power of two, so positions wrap with a mask.  A lane starts with no
   ring and takes 16 slots at its first push, so that building a network
   allocates nothing for its lanes. *)
let grow_lane l =
  let cap = Array.length l.l_loads in
  let unroll a fill =
    let b = Array.make (if cap = 0 then 16 else 2 * cap) fill in
    let first = cap - l.l_head in
    Array.blit a l.l_head b 0 first;
    Array.blit a 0 b first (cap - first);
    b
  in
  l.l_times <- unroll l.l_times 0.;
  l.l_seqs <- unroll l.l_seqs 0;
  l.l_loads <- unroll l.l_loads 0;
  l.l_head <- 0

(* The ring position the next push writes its time into. *)
let tail_slot l =
  if l.l_len = Array.length l.l_loads then grow_lane l;
  (l.l_head + l.l_len) land (Array.length l.l_loads - 1)

let[@inline] last_time l =
  l.l_times.((l.l_head + l.l_len - 1) land (Array.length l.l_loads - 1))

(* Stamp and count the entry whose time is already at ring position [i]
   and append it.  The delay is read back from the ring, so it is never
   passed as a boxed float. *)
let commit l i payload =
  let t = l.eng in
  l.l_seqs.(i) <- take_seq t;
  l.l_loads.(i) <- payload;
  l.l_len <- l.l_len + 1;
  t.live <- t.live + 1;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  if l.l_len = 1 then enter_head l else t.lane_queued <- t.lane_queued + 1;
  let d = t.delays in
  d.sum <- d.sum +. (l.l_times.(i) -. t.clock.v);
  d.count <- d.count +. 1.

(* Both entry points validate before touching the lane, so a rejected
   push changes nothing.  [not (x >= y)] also rejects NaN. *)
let lane_push l ~at payload =
  let clock = l.eng.clock in
  if not (at >= clock.v && (l.l_len = 0 || at >= last_time l)) then
    invalid_arg
      (Printf.sprintf
         "Engine.lane_push: at=%g is before now=%g or the lane's last entry"
         at clock.v);
  let i = tail_slot l in
  l.l_times.(i) <- at;
  commit l i payload

let lane_push_after l ~delay payload =
  let clock = l.eng.clock in
  if
    not
      (delay >= 0. && (l.l_len = 0 || clock.v +. delay >= last_time l))
  then
    invalid_arg
      (Printf.sprintf
         "Engine.lane_push_after: delay=%g is negative or lands before the \
          lane's last entry"
         delay);
  let i = tail_slot l in
  l.l_times.(i) <- clock.v +. delay;
  commit l i payload

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

(* The heap whose root fires next: the lesser root by (time, seq), or an
   empty heap when both are. *)
let next t =
  let a = t.near and b = t.far in
  if b.len = 0 then a
  else if a.len = 0 then b
  else
    let ka = a.keys.(0) and kb = b.keys.(0) in
    if kb < ka || (kb = ka && b.seq_slots.(0) < a.seq_slots.(0)) then b
    else a

(* Pop the root of [h] and fire it, or recycle it if it was cancelled.
   The last entry fills the root's hole. *)
let fire_root t h =
  let keys = h.keys and ss = h.seq_slots in
  let idx = ss.(0) land idx_mask in
  let n = h.len - 1 in
  h.len <- n;
  if n > 0 then sift_down keys ss ~n ~hole:0 ~src:n;
  let g = t.gens.(idx) in
  if g land 1 = 0 then begin
    t.free.(t.free_len) <- idx;
    t.free_len <- t.free_len + 1;
    let action = t.actions.(idx) in
    t.clock.v <- t.times.(idx);
    t.gens.(idx) <- g + 2;
    t.live <- t.live - 1;
    t.fired <- t.fired + 1;
    action ()
  end
  else discard t idx

let run t ~until =
  let continue = ref true in
  while !continue do
    let h = next t in
    if h.len > 0 && h.keys.(0) <= until then fire_root t h
    else continue := false
  done;
  if until > t.clock.v then t.clock.v <- until

let run_until_idle t ~max_events =
  let rec loop n =
    if n > max_events then failwith "Engine.run_until_idle: event budget blown"
    else
      let h = next t in
      if h.len > 0 then begin
        fire_root t h;
        loop (n + 1)
      end
  in
  loop 0
