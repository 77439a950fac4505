(* Host-time tracing from outside the library.

   The benchmark wraps the closures it hands to the simulator (a qdisc, a
   source's [emit], a flow sink, a link tap, a signaling call), so each
   call into a layer becomes a span.  Spans nest: a source's [emit] runs
   the policer, the routing and the link, and the link calls the qdisc, so
   a span's self time is its duration minus the spans opened inside it.
   Per boundary the tracer keeps a count, and a self-time sum over the
   simulation (run) phase; individual spans are kept for a sample only,
   chosen by packet or session id so that every span of a sampled packet
   is kept.

   A tracer belongs to one domain: a sharded run gives each shard its
   own, created before the spawn, used only inside the shard's domain and
   read after the join.  When a tracer is off its wrappers return the
   wrapped closure itself, so an untraced run executes the library's code
   and nothing else. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Boundaries, one accumulator each. *)
let b_enqueue = 0
let b_dequeue = 1
let b_emit = 2
let b_sink = 3
let b_audit = 4
let b_hist = 5
let b_setup = 6
let b_depart = 7
let n_bounds = 8

let bound_name =
  [| "sched.enqueue"; "sched.dequeue"; "traffic.emit"; "sink.deliver";
     "audit.tap"; "obs.hist_add"; "signaling.setup"; "signaling.depart" |]

let span_cap = 4096
let max_depth = 64

type t = {
  on : bool;
  count : int array;  (** since the last phase flush *)
  self : int array;  (** ns since the last phase flush, clock included *)
  run_count : int array;
  run_self : int array;
  other_count : int array;  (** outside the run phase: counted only *)
  child : int array;  (** per open span: time of the spans nested in it *)
  open_bound : int array;
  mutable depth : int;
  mutable idle_dequeues : int;
  mutable rejects : int;
  sp_bound : int array;
  sp_id : int array;
  sp_parent : int array;
  sp_start : int array;
  sp_stop : int array;
  mutable sp_len : int;
}

let create ~on =
  let z () = Array.make n_bounds 0 in
  {
    on;
    count = z ();
    self = z ();
    run_count = z ();
    run_self = z ();
    other_count = z ();
    child = Array.make (max_depth + 1) 0;
    open_bound = Array.make (max_depth + 1) (-1);
    depth = 0;
    idle_dequeues = 0;
    rejects = 0;
    sp_bound = Array.make span_cap 0;
    sp_id = Array.make span_cap 0;
    sp_parent = Array.make span_cap 0;
    sp_start = Array.make span_cap 0;
    sp_stop = Array.make span_cap 0;
    sp_len = 0;
  }

(* Close a phase: move what accumulated since the last flush into the run
   bucket, or count it as outside the run phase (set-up). *)
let flush t ~run =
  for b = 0 to n_bounds - 1 do
    if run then begin
      t.run_count.(b) <- t.run_count.(b) + t.count.(b);
      t.run_self.(b) <- t.run_self.(b) + t.self.(b)
    end
    else t.other_count.(b) <- t.other_count.(b) + t.count.(b);
    t.count.(b) <- 0;
    t.self.(b) <- 0
  done

(* Ids: a packet is [(flow, seq)], a session its arrival number; every
   256th packet of a flow and every 256th session is sampled. *)
let packet_id p = (Ispn_sim.Packet.flow p lsl 32) lor Ispn_sim.Packet.seq p
let sampled id = id land 255 = 0

(* Reading a packet's id costs two arena lookups: skip it once the sample
   is full. *)
let[@inline] id_of t p = if t.sp_len < span_cap then packet_id p else -1

let[@inline] enter t b =
  let d = t.depth + 1 in
  t.depth <- d;
  t.child.(d) <- 0;
  t.open_bound.(d) <- b;
  now_ns ()

let[@inline] leave t b ~id t0 =
  let t1 = now_ns () in
  let dur = t1 - t0 in
  let d = t.depth in
  t.self.(b) <- t.self.(b) + dur - t.child.(d);
  t.count.(b) <- t.count.(b) + 1;
  t.depth <- d - 1;
  if d > 1 then t.child.(d - 1) <- t.child.(d - 1) + dur;
  if id >= 0 && sampled id && t.sp_len < span_cap then begin
    let i = t.sp_len in
    t.sp_bound.(i) <- b;
    t.sp_id.(i) <- id;
    t.sp_parent.(i) <- t.open_bound.(d - 1);
    t.sp_start.(i) <- t0;
    t.sp_stop.(i) <- t1;
    t.sp_len <- i + 1
  end

(* {2 Wrappers} *)

(* Keeps the wrapped qdisc's [name], [length] and [attach_waker], so the
   link and the audit see the same scheduler. *)
let qdisc t (q : Ispn_sim.Qdisc.t) =
  if not t.on then q
  else
    {
      q with
      Ispn_sim.Qdisc.enqueue =
        (fun ~now p ->
          let id = id_of t p in
          let t0 = enter t b_enqueue in
          let ok = q.Ispn_sim.Qdisc.enqueue ~now p in
          leave t b_enqueue ~id t0;
          if not ok then t.rejects <- t.rejects + 1;
          ok);
      dequeue =
        (fun ~now ->
          let t0 = enter t b_dequeue in
          let r = q.Ispn_sim.Qdisc.dequeue ~now in
          (match r with
          | Some p -> leave t b_dequeue ~id:(id_of t p) t0
          | None ->
              leave t b_dequeue ~id:(-1) t0;
              t.idle_dequeues <- t.idle_dequeues + 1);
          r);
    }

(* A packet-consuming closure (an [emit], a sink).  The id is read before
   the call: a sink frees the packet. *)
let packet_fn t b (f : Ispn_sim.Packet.t -> unit) =
  if not t.on then f
  else fun p ->
    let id = id_of t p in
    let t0 = enter t b in
    f p;
    leave t b ~id t0

let tap t b (tp : Ispn_sim.Tap.t) =
  if not t.on then tp
  else
    let open Ispn_sim.Tap in
    {
      on_enqueue =
        (fun ~link ~now p ->
          let id = id_of t p in
          let t0 = enter t b in
          tp.on_enqueue ~link ~now p;
          leave t b ~id t0);
      on_dequeue =
        (fun ~link ~now ~wait p ->
          let id = id_of t p in
          let t0 = enter t b in
          tp.on_dequeue ~link ~now ~wait p;
          leave t b ~id t0);
      on_idle =
        (fun ~link ~now ~qlen ->
          let t0 = enter t b in
          tp.on_idle ~link ~now ~qlen;
          leave t b ~id:(-1) t0);
      on_deliver =
        (fun ~link ~now p ->
          let id = id_of t p in
          let t0 = enter t b in
          tp.on_deliver ~link ~now p;
          leave t b ~id t0);
      on_drop =
        (fun ~link ~now ~cause p ->
          let id = id_of t p in
          let t0 = enter t b in
          tp.on_drop ~link ~now ~cause p;
          leave t b ~id t0);
    }

(* A dequeue-tap callback feeding one histogram channel. *)
let hist_add t ch =
  if not t.on then fun ~link:_ ~now:_ ~wait _ -> Ispn_util.Loghist.add ch wait
  else fun ~link:_ ~now:_ ~wait p ->
    let id = id_of t p in
    let t0 = enter t b_hist in
    Ispn_util.Loghist.add ch wait;
    leave t b_hist ~id t0

(* A control-plane call for session [id]. *)
let call t b ~id f =
  if not t.on then f ()
  else begin
    let t0 = enter t b in
    f ();
    leave t b ~id t0
  end

(* {2 Clock overhead}

   A span costs two clock reads plus bookkeeping.  [inner] is the duration
   an empty span reports (removed from every span's self time); [outer] is
   the host time an empty span adds to a run (the tracer's row in the
   breakdown).  Medians over repeated batches. *)

type overhead = { inner : float; outer : float }

let calibrate () =
  let n = 20_000 in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let batch () =
    let t = create ~on:true in
    let w0 = now_ns () in
    for _ = 1 to n do
      let t0 = enter t b_hist in
      leave t b_hist ~id:(-1) t0
    done;
    let w1 = now_ns () in
    ( float_of_int t.self.(b_hist) /. float_of_int n,
      float_of_int (w1 - w0) /. float_of_int n )
  in
  let runs = List.init 9 (fun _ -> batch ()) in
  { inner = median (List.map fst runs); outer = median (List.map snd runs) }

(* Run-phase self time of boundary [b] with the clock's share removed. *)
let run_self_ns ov t b =
  Float.max 0.
    (float_of_int t.run_self.(b) -. (ov.inner *. float_of_int t.run_count.(b)))

let total_count t b = t.run_count.(b) + t.other_count.(b) + t.count.(b)
let run_spans t = Array.fold_left ( + ) 0 t.run_count

(* Sum [src] into [dst]: per-shard tracers, after the join. *)
let add_into dst src =
  let add a b = Array.iteri (fun i v -> a.(i) <- a.(i) + v) b in
  add dst.count src.count;
  add dst.self src.self;
  add dst.run_count src.run_count;
  add dst.run_self src.run_self;
  add dst.other_count src.other_count;
  dst.idle_dequeues <- dst.idle_dequeues + src.idle_dequeues;
  dst.rejects <- dst.rejects + src.rejects;
  for i = 0 to src.sp_len - 1 do
    if dst.sp_len < span_cap then begin
      let j = dst.sp_len in
      dst.sp_bound.(j) <- src.sp_bound.(i);
      dst.sp_id.(j) <- src.sp_id.(i);
      dst.sp_parent.(j) <- src.sp_parent.(i);
      dst.sp_start.(j) <- src.sp_start.(i);
      dst.sp_stop.(j) <- src.sp_stop.(i);
      dst.sp_len <- j + 1
    end
  done

let write_spans t path =
  let oc = open_out path in
  output_string oc "boundary,id,parent,start_ns,stop_ns\n";
  for i = 0 to t.sp_len - 1 do
    let parent = t.sp_parent.(i) in
    Printf.fprintf oc "%s,%d,%s,%d,%d\n" bound_name.(t.sp_bound.(i))
      t.sp_id.(i)
      (if parent < 0 then "" else bound_name.(parent))
      t.sp_start.(i) t.sp_stop.(i)
  done;
  close_out oc
