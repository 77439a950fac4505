(* One simulation partitioned across OCaml 5 domains with conservative
   (Chandy-Misra-Bryant) synchronization.  The topology is described as
   plain data so every shard can build its own switches, links and
   sources *on the domain that runs it* — [Link.create] binds the
   creating domain's packet arena, and handles never cross domains.
   Shard 0 runs on the calling domain and each other shard on a domain
   spawned for it ([Ispn_exec.Workers]), so a one-shard run spawns
   nothing.  Shards advance in lock-step windows no wider than the
   minimum cross-shard propagation delay (the lookahead), so every
   packet that leaves a shard in window [k] arrives in window [k+1] or
   later and can be handed over at the barrier.

   Cross-shard handoff marshals the handle's arena fields into a
   fixed-layout struct-of-arrays exchange buffer (the packet is freed in
   the source arena at the boundary and re-made in the destination's),
   double-buffered by window parity so the producer of window [k+1]
   never races the consumer of window [k].  Inboxes drain in canonical
   order — ascending global link id, entries in production (= time)
   order — before each window, so simultaneous cross-shard arrivals
   schedule identically at every shard count.  Determinism contract:
   stdout and all derived reports are byte-identical for every
   [n_shards] unless a cut-link arrival ties on the exact float instant
   with another event at its destination; unsharded it ranks by its
   send, sharded by the drain (see the .mli and DESIGN.md §10). *)

type link_spec = {
  l_src : int;
  l_dst : int;
  l_rate_bps : float;
  l_prop_delay : float;
  l_qdisc : unit -> Qdisc.t;
}

type flow_spec = {
  f_src : int;
  f_dst : int;
  f_driver : Engine.t -> (Packet.t -> unit) -> unit;
}

type spec = {
  n_switches : int;
  n_shards : int;
  shard_of : int array;
  links : link_spec array;
  flows : flow_spec array;
}

type flow_stat = {
  f_delivered : int;
  f_delay_sum : float;
  f_delay_max : float;
  f_qdelay_sum : float;
  f_digest : int;
}

type link_stat = { k_sent : int; k_dropped : int; k_drops_buffer : int }

type result = {
  r_flows : flow_stat array;
  r_links : link_stat array;
  r_shards : int;
  r_windows : int;
  r_lookahead : float;
  r_cut_links : int;
  r_pushed : int;
  r_drained : int;
  r_fired : int;
}

(* ---- exchange buffers ------------------------------------------------- *)

(* Marshalled packet fields, one fixed-layout SoA per (cut link, window
   parity).  Written by the source shard during window [k] into parity
   [k land 1], drained by the destination at the start of window [k+1];
   the barrier between windows publishes the writes, and the producer is
   a full window ahead before it touches that parity again. *)
type xbuf = {
  mutable x_arrival : float array;
  mutable x_flow : int array;
  mutable x_seq : int array;
  mutable x_size : int array;
  mutable x_kind : int array; (* Data = 0, Ack = 1 *)
  mutable x_created : float array;
  mutable x_offset : float array;
  mutable x_qdelay : float array;
  mutable x_hops : int array;
  mutable x_len : int;
}

let xbuf_create cap =
  {
    x_arrival = Array.make cap 0.;
    x_flow = Array.make cap 0;
    x_seq = Array.make cap 0;
    x_size = Array.make cap 0;
    x_kind = Array.make cap 0;
    x_created = Array.make cap 0.;
    x_offset = Array.make cap 0.;
    x_qdelay = Array.make cap 0.;
    x_hops = Array.make cap 0;
    x_len = 0;
  }

let xbuf_grow b =
  let ext_f a = Array.append a (Array.make (Array.length a) 0.) in
  let ext_i a = Array.append a (Array.make (Array.length a) 0) in
  b.x_arrival <- ext_f b.x_arrival;
  b.x_flow <- ext_i b.x_flow;
  b.x_seq <- ext_i b.x_seq;
  b.x_size <- ext_i b.x_size;
  b.x_kind <- ext_i b.x_kind;
  b.x_created <- ext_f b.x_created;
  b.x_offset <- ext_f b.x_offset;
  b.x_qdelay <- ext_f b.x_qdelay;
  b.x_hops <- ext_i b.x_hops

(* Marshal [p]'s fields at [arrival] and free it in this domain's arena:
   past this point the packet exists only as scalars in the buffer.
   Direct array stores throughout — the only boxing on the path is the
   clock read in the caller. *)
let xbuf_push b (pa : Packet.arena) p ~arrival =
  if b.x_len = Array.length b.x_arrival then xbuf_grow b;
  let n = b.x_len in
  b.x_arrival.(n) <- arrival;
  b.x_flow.(n) <- pa.Packet.flow.(p);
  b.x_seq.(n) <- pa.Packet.seq.(p);
  b.x_size.(n) <- pa.Packet.size_bits.(p);
  b.x_kind.(n) <- (match pa.Packet.kind.(p) with Packet.Data -> 0 | Ack -> 1);
  b.x_created.(n) <- pa.Packet.created.(p);
  b.x_offset.(n) <- pa.Packet.offset.(p);
  b.x_qdelay.(n) <- pa.Packet.qdelay_total.(p);
  b.x_hops.(n) <- pa.Packet.hops.(p);
  b.x_len <- n + 1;
  Packet.free p

(* Re-make entry [i] in the calling domain's arena and restore the
   fields [Packet.make] resets.  [enqueued_at] needs no restoring: the
   next [Link.send] stamps it, exactly as after an intra-shard hop. *)
let xbuf_remake b (pa : Packet.arena) i =
  let p =
    Packet.make ~flow:b.x_flow.(i) ~seq:b.x_seq.(i) ~size_bits:b.x_size.(i)
      ~kind:(if b.x_kind.(i) = 0 then Packet.Data else Packet.Ack)
      ~created:b.x_created.(i) ()
  in
  pa.Packet.offset.(p) <- b.x_offset.(i);
  pa.Packet.qdelay_total.(p) <- b.x_qdelay.(i);
  pa.Packet.hops.(p) <- b.x_hops.(i);
  p

(* One cross-shard link's handoff state.  [c_pushed] is written by the
   source shard's worker, [c_drained] by the destination's, in disjoint
   barrier-separated phases. *)
type cut = {
  c_link : int; (* global link id; drain order is ascending *)
  c_dst_shard : int;
  c_dst_switch : int;
  c_prop : float;
  c_bufs : xbuf array; (* length 2, indexed by window parity *)
  mutable c_pushed : int;
  mutable c_drained : int;
}

(* ---- barrier ---------------------------------------------------------- *)

module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    parties : int;
    mutable count : int;
    mutable gen : int;
  }

  let create parties =
    { m = Mutex.create (); c = Condition.create (); parties; count = 0; gen = 0 }

  (* Classic generation-counting barrier; the mutex hand-off doubles as
     the happens-before edge that publishes each window's exchange
     buffers to their consumers. *)
  let wait b =
    Mutex.lock b.m;
    let g = b.gen in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.gen <- g + 1;
      Condition.broadcast b.c
    end
    else
      while b.gen = g do
        Condition.wait b.c b.m
      done;
    Mutex.unlock b.m
end

let validate spec =
  if spec.n_shards < 1 then invalid_arg "Shardnet: n_shards must be >= 1";
  if Array.length spec.shard_of <> spec.n_switches then
    invalid_arg "Shardnet: shard_of length mismatch";
  Array.iter
    (fun s ->
      if s < 0 || s >= spec.n_shards then
        invalid_arg "Shardnet: shard_of out of range")
    spec.shard_of;
  Array.iter
    (fun l ->
      if spec.shard_of.(l.l_src) <> spec.shard_of.(l.l_dst)
         && not (l.l_prop_delay > 0.)
      then
        invalid_arg
          "Shardnet: cross-shard links need a positive prop_delay \
           (conservative lookahead)")
    spec.links

(* What one shard hands back; plain data read after [Workers.run]. *)
type shard_out = {
  o_flows : flow_stat array; (* full length; only owned egresses filled *)
  o_links : link_stat array; (* full length; only owned links filled *)
  o_fired : int;
}

let no_link_stat = { k_sent = 0; k_dropped = 0; k_drops_buffer = 0 }

(* Deterministic digest of a delivery stream: folds (seq, delay) in
   arrival order, so the differential tests can compare full per-flow
   delivery histories across shard widths without storing them. *)
let fnv_prime = 0x100000001b3

let digest_mix h ~seq ~delay =
  let h = (h * fnv_prime) lxor seq in
  (h * fnv_prime) lxor Int64.to_int (Int64.bits_of_float delay)

let run ?on_start ?on_link ?on_shard ?on_finish ?(until = 60.) spec =
  (* Global routes as link ids, computed once here (the route store is
     filled on this domain) and only read by the shards.  Indexing the
     links rejects bad endpoints, self-loops and duplicates. *)
  let ends = Array.map (fun l -> (l.l_src, l.l_dst)) spec.links in
  let routes = Network.routes ~n_switches:spec.n_switches ends in
  validate spec;
  let n_links = Array.length spec.links in
  let n_flows = Array.length spec.flows in
  let paths =
    Array.map
      (fun f ->
        match Network.route routes ~src:f.f_src ~dst:f.f_dst with
        | Some path -> path
        | None ->
            failwith
              (Printf.sprintf "Shardnet: switch %d unreachable from %d"
                 f.f_dst f.f_src))
      spec.flows
  in
  (* Cut links, in ascending global id — the canonical drain order. *)
  let cuts =
    Array.of_list
      (List.concat_map
         (fun li ->
           let l = spec.links.(li) in
           let ss = spec.shard_of.(l.l_src)
           and ds = spec.shard_of.(l.l_dst) in
           if ss = ds then []
           else
             [
               {
                 c_link = li;
                 c_dst_shard = ds;
                 c_dst_switch = l.l_dst;
                 c_prop = l.l_prop_delay;
                 c_bufs = [| xbuf_create 64; xbuf_create 64 |];
                 c_pushed = 0;
                 c_drained = 0;
               };
             ])
         (List.init n_links (fun i -> i)))
  in
  let lookahead =
    Array.fold_left (fun w c -> Ispn_util.Fcmp.fmin w c.c_prop) infinity cuts
  in
  let windows =
    if Array.length cuts = 0 then 1
    else Int.max 1 (int_of_float (ceil (until /. lookahead)))
  in
  let t_end k =
    if k = windows - 1 then until
    else Ispn_util.Fcmp.fmin until (lookahead *. float_of_int (k + 1))
  in
  let barrier = Barrier.create spec.n_shards in
  let worker shard () =
    (match on_start with None -> () | Some f -> f ~shard);
    (* Shard 0 runs on the caller, whose arena outlives the run. *)
    let live_before = Packet.mark () in
    let engine = Engine.create () in
    let pa = Packet.arena () in
    (* The parity cell the cut-link receivers read: updated by the window
       loop, so a handoff always lands in the current window's buffer. *)
    let parity = ref 0 in
    (* The links this shard transmits on, in ascending global id. *)
    let links =
      Array.of_list
        (List.filter_map
           (fun li ->
             let l = spec.links.(li) in
             if spec.shard_of.(l.l_src) <> shard then None
             else begin
               let qdisc = l.l_qdisc () in
               let internal = spec.shard_of.(l.l_dst) = shard in
               let lk =
                 Link.create ~engine ~rate_bps:l.l_rate_bps
                   ~prop_delay:(if internal then l.l_prop_delay else 0.)
                   ~id:li ~qdisc
                   ~name:(Printf.sprintf "s%d->s%d" l.l_src l.l_dst)
                   ()
               in
               if not internal then begin
                 (* Cut link: zero engine-side propagation, so the
                    receiver fires synchronously at transmission finish;
                    it marshals the packet (arrival = finish + the real
                    prop delay) into the current window's outbox and
                    frees the handle. *)
                 let cut =
                   let rec find i =
                     if cuts.(i).c_link = li then cuts.(i) else find (i + 1)
                   in
                   find 0
                 in
                 Link.set_receiver lk (fun p ->
                     let b = cut.c_bufs.(!parity) in
                     xbuf_push b pa p
                       ~arrival:(Engine.now engine +. cut.c_prop);
                     cut.c_pushed <- cut.c_pushed + 1)
               end;
               (match on_link with None -> () | Some f -> f ~shard lk);
               Some lk
             end)
           (List.init n_links Fun.id))
    in
    (* This shard's forwarding table: entries at its own switches, and
       the receivers of the links into them. *)
    let fwd =
      Fwd.create
        ~names:(Array.init spec.n_switches (Printf.sprintf "s%d"))
        ~owns:(fun i -> spec.shard_of.(i) = shard)
        ~ends links
    in
    (* Per-flow delivery accounting at owned egresses.  A flow's packets
       carry its index as their flow id, so one sink serves them all. *)
    let delivered = Array.make (Int.max 1 n_flows) 0 in
    let delay_sum = Array.make (Int.max 1 n_flows) 0. in
    let delay_max = Array.make (Int.max 1 n_flows) 0. in
    let qdelay_sum = Array.make (Int.max 1 n_flows) 0. in
    let digest = Array.make (Int.max 1 n_flows) 0 in
    let deliver p =
      let fi = pa.Packet.flow.(p) in
      let d = Engine.now engine -. pa.Packet.created.(p) in
      delivered.(fi) <- delivered.(fi) + 1;
      delay_sum.(fi) <- delay_sum.(fi) +. d;
      if d > delay_max.(fi) then delay_max.(fi) <- d;
      qdelay_sum.(fi) <- qdelay_sum.(fi) +. pa.Packet.qdelay_total.(p);
      digest.(fi) <- digest_mix digest.(fi) ~seq:pa.Packet.seq.(p) ~delay:d;
      Packet.free p
    in
    Array.iteri
      (fun fi f ->
        Fwd.install fwd ~flow:fi ~path:paths.(fi) ~egress:f.f_dst
          ~sink:deliver;
        if spec.shard_of.(f.f_src) = shard then
          f.f_driver engine (fun p -> Fwd.receive fwd f.f_src p))
      spec.flows;
    (match on_shard with None -> () | Some f -> f ~shard engine);
    (* Each inbound cut is one engine lane into its switch: a cut's
       entries are drained in nondecreasing arrival time, so only the
       head of each is in the engine's heaps, and no closure is made per
       cross-shard packet. *)
    let arrivals =
      Array.map
        (fun c ->
          if c.c_dst_shard <> shard then None
          else
            Some
              (Engine.lane engine (fun p -> Fwd.receive fwd c.c_dst_switch p)))
        cuts
    in
    (* Drain this shard's inboxes for one window parity: canonical order
       is ascending global link id, entries in production (time) order;
       each push takes its stamp in that order, so the engine's FIFO
       tie-break fixes simultaneous arrivals identically at every shard
       count. *)
    let drain par =
      Array.iteri
        (fun ci c ->
          match arrivals.(ci) with
          | None -> ()
          | Some lane ->
              let b = c.c_bufs.(par) in
              for i = 0 to b.x_len - 1 do
                Engine.lane_push lane ~at:b.x_arrival.(i) (xbuf_remake b pa i)
              done;
              c.c_drained <- c.c_drained + b.x_len;
              b.x_len <- 0)
        cuts
    in
    for k = 0 to windows - 1 do
      if k > 0 then drain ((k - 1) land 1);
      parity := k land 1;
      Engine.run engine ~until:(t_end k);
      Barrier.wait barrier
    done;
    (* Handoffs from the last window whose arrival falls exactly on
       [until] must still fire — an unsharded run delivers them. *)
    if Array.length cuts > 0 then begin
      drain ((windows - 1) land 1);
      Engine.run engine ~until
    end;
    (match on_finish with None -> () | Some f -> f ~shard);
    Packet.free_since live_before;
    let links_out = Array.make (Int.max 1 n_links) no_link_stat in
    Array.iter
      (fun lk ->
        links_out.(Link.id lk) <-
          {
            k_sent = Link.sent lk;
            k_dropped = Link.dropped lk;
            k_drops_buffer = Link.drops_buffer lk;
          })
      links;
    let flows_out =
      Array.init (Int.max 1 n_flows) (fun fi ->
          {
            f_delivered = delivered.(fi);
            f_delay_sum = delay_sum.(fi);
            f_delay_max = delay_max.(fi);
            f_qdelay_sum = qdelay_sum.(fi);
            f_digest = digest.(fi);
          })
    in
    let st = Engine.stats engine in
    {
      o_flows = flows_out;
      o_links = links_out;
      o_fired = st.Engine.events_fired;
    }
  in
  (* Shard 0 runs on the calling domain, the others on domains of their
     own: a one-shard run spawns nothing. *)
  let outs = Ispn_exec.Workers.run (Array.init spec.n_shards worker) in
  (* Merge: each flow's egress and each link live in exactly one shard,
     so the merge picks, in canonical index order, the owning shard's
     entry. *)
  let r_flows =
    Array.init n_flows (fun fi ->
        let f = spec.flows.(fi) in
        outs.(spec.shard_of.(f.f_dst)).o_flows.(fi))
  in
  let r_links =
    Array.init n_links (fun li ->
        outs.(spec.shard_of.(spec.links.(li).l_src)).o_links.(li))
  in
  {
    r_flows;
    r_links;
    r_shards = spec.n_shards;
    r_windows = windows;
    r_lookahead = (if Array.length cuts = 0 then until else lookahead);
    r_cut_links = Array.length cuts;
    r_pushed = Array.fold_left (fun a c -> a + c.c_pushed) 0 cuts;
    r_drained = Array.fold_left (fun a c -> a + c.c_drained) 0 cuts;
    r_fired = Array.fold_left (fun a o -> a + o.o_fired) 0 outs;
  }

module For_tests = struct
  type buf = xbuf

  let buf () = xbuf_create 4
  let push = xbuf_push
  let remake = xbuf_remake
  let reset b = b.x_len <- 0
end
