module Qdisc = Ispn_sim.Qdisc
module Packet = Ispn_sim.Packet
module Tap = Ispn_sim.Tap
module Recorder = Ispn_obs.Recorder

let delay_eps = 1e-9
let bucket_eps = 1e-6
let bound_eps = 1e-9
let max_samples = 8

let non_work_conserving_names =
  [ "Stop-and-Go"; "HRR"; "Jitter-EDD"; "CBS"; "ATS" ]
let work_conserving_name n =
  not (List.exists (String.equal n) non_work_conserving_names)

type counter = { inv : string; mutable checks : int; mutable violations : int }

type lstate = {
  l_id : int;
  l_name : string;
  l_qdisc : Qdisc.t;
  wc : bool;
  mutable accepted : int;
  mutable dequeued : int;
  mutable delivered : int;
  mutable drops_buffer : int;
  mutable drops_down : int;
  mutable drops_wire : int;
}

(* Replays the policer's exact refill/debit arithmetic (same float
   operations in the same order as [Ispn_traffic.Token_bucket]), so a
   conforming trace matches to the last bit.  All floats, so OCaml stores
   it flat and a debit writes [tokens] and [last_refill] unboxed; the
   link the flow is policed at is in [t.bucket_links]. *)
type bucket = {
  rate_bps : float;
  depth_bits : float;
  mutable tokens : float;
  mutable last_refill : float;
}

type bound_kind = Pg | Cbs | Ats | Wrr | Mc_fifo

let bound_label = function
  | Pg -> "PG"
  | Cbs -> "CBS"
  | Ats -> "ATS"
  | Wrr -> "WRR"
  | Mc_fifo -> "MC-FIFO"

type gbound = { g_link : int; bound_s : float; g_kind : bound_kind }

(* One soft-state book (a signaling agent's admission records, a flow-slot
   pool) whose cumulative counters must balance at report time. *)
type fstate = {
  f_label : string;
  f_admitted : unit -> int;
  f_released : unit -> int;
  f_live : unit -> int;
  f_bad : (unit -> int) option;
}

type t = {
  mutable links : lstate option array;
  mutable pools : (int * Qdisc.pool) list;  (* newest first *)
  mutable buckets : bucket option array;
  mutable bucket_links : int array;  (* by flow; -1 = not policed *)
  mutable bounds : gbound option array;
  mutable fstates : fstate list;  (* newest first *)
  conservation : counter;
  pool : counter;
  arena : counter;
  work_conservation : counter;
  delay : counter;
  token_bucket : counter;
  delay_bound : counter;
  flow_state : counter;
  arena_base : Packet.pool_stats;
      (* Arena counters are cumulative across the simulations a domain has
         run, so the invariant is checked on deltas from this baseline
         (captured at [create], before the run allocates anything) — that
         keeps the audit [-j]-independent. *)
  mutable events : int;
  mutable samples : string list;  (* newest first *)
  mutable n_samples : int;
}

let counters t =
  [
    t.conservation;
    t.pool;
    t.arena;
    t.work_conservation;
    t.delay;
    t.token_bucket;
    t.delay_bound;
    t.flow_state;
  ]

let create () =
  {
    links = Array.make 8 None;
    pools = [];
    buckets = Array.make 32 None;
    bucket_links = Array.make 32 (-1);
    bounds = Array.make 32 None;
    fstates = [];
    conservation = { inv = "conservation"; checks = 0; violations = 0 };
    pool = { inv = "pool"; checks = 0; violations = 0 };
    arena = { inv = "packet-arena"; checks = 0; violations = 0 };
    arena_base = Packet.pool_stats ();
    work_conservation =
      { inv = "work-conservation"; checks = 0; violations = 0 };
    delay = { inv = "delay"; checks = 0; violations = 0 };
    token_bucket = { inv = "token-bucket"; checks = 0; violations = 0 };
    delay_bound = { inv = "delay-bound"; checks = 0; violations = 0 };
    flow_state = { inv = "flow-state"; checks = 0; violations = 0 };
    events = 0;
    samples = [];
    n_samples = 0;
  }

let violate t c msg =
  c.violations <- c.violations + 1;
  if t.n_samples < max_samples then begin
    t.samples <- Printf.sprintf "%s: %s" c.inv msg :: t.samples;
    t.n_samples <- t.n_samples + 1
  end

let check t c cond msg =
  c.checks <- c.checks + 1;
  if not cond then violate t c (msg ())

let set_slot t get set i v =
  let arr = Ispn_util.Dense.fit (get t) i None in
  set t arr;
  arr.(i) <- Some v

let link_state t i =
  if i < Array.length t.links then t.links.(i) else None

let register_qdisc t ~link (q : Qdisc.t) =
  let wc = work_conserving_name q.Qdisc.name in
  set_slot t (fun t -> t.links) (fun t a -> t.links <- a) link
    {
      l_id = link;
      l_name = q.Qdisc.name;
      l_qdisc = q;
      wc;
      accepted = 0;
      dequeued = 0;
      delivered = 0;
      drops_buffer = 0;
      drops_down = 0;
      drops_wire = 0;
    }

let register_pool t ~link pool = t.pools <- (link, pool) :: t.pools

let register_policed_flow t ~flow ~link ~rate_bps ~depth_bits =
  set_slot t (fun t -> t.buckets) (fun t a -> t.buckets <- a) flow
    { rate_bps; depth_bits; tokens = depth_bits; last_refill = 0. };
  t.bucket_links <- Ispn_util.Dense.fit t.bucket_links flow (-1);
  t.bucket_links.(flow) <- link

let register_flow_state t ~label ~admitted ~released ~live ?bad () =
  t.fstates <-
    {
      f_label = label;
      f_admitted = admitted;
      f_released = released;
      f_live = live;
      f_bad = bad;
    }
    :: t.fstates

let register_delay_bound t ~kind ~flow ~link ~bound_s =
  set_slot t (fun t -> t.bounds) (fun t a -> t.bounds <- a) flow
    { g_link = link; bound_s; g_kind = kind }

let debit_bucket t pa b ~now ~flow (pkt : Packet.t) =
  (* Mirror of [Token_bucket.refill] + the conforming debit. *)
  if now > b.last_refill then begin
    let filled = b.tokens +. ((now -. b.last_refill) *. b.rate_bps) in
    b.tokens <- (if b.depth_bits <= filled then b.depth_bits else filled);
    b.last_refill <- now
  end;
  let need = float_of_int pa.Packet.size_bits.(pkt) in
  check t t.token_bucket
    (b.tokens >= need -. bucket_eps)
    (fun () ->
      Printf.sprintf
        "flow %d seq %d at t=%.6f: %d bits offered with only %.3f tokens \
         (rate %.0f bps, depth %.0f bits)"
        flow pa.Packet.seq.(pkt) now pa.Packet.size_bits.(pkt) b.tokens
        b.rate_bps b.depth_bits);
  b.tokens <- b.tokens -. need

let on_arrival t pa ~link ~now (pkt : Packet.t) =
  let flow = pa.Packet.flow.(pkt) in
  if flow < Array.length t.bucket_links && t.bucket_links.(flow) = link then
    match t.buckets.(flow) with
    | Some b -> debit_bucket t pa b ~now ~flow pkt
    | None -> ()

let tap t =
  let pa = Packet.arena () in
  let on_enqueue ~link ~now (pkt : Packet.t) =
    t.events <- t.events + 1;
    (match link_state t link with
    | None -> ()
    | Some ls -> ls.accepted <- ls.accepted + 1);
    check t t.delay
      (pa.Packet.qdelay_total.(pkt) >= -.delay_eps)
      (fun () ->
        Printf.sprintf
          "flow %d seq %d at t=%.6f: negative accumulated delay %.9f on \
           enqueue at link %d"
          pa.Packet.flow.(pkt) pa.Packet.seq.(pkt) now
          pa.Packet.qdelay_total.(pkt) link);
    on_arrival t pa ~link ~now pkt
  in
  let on_dequeue ~link ~now ~wait (pkt : Packet.t) =
    t.events <- t.events + 1;
    (match link_state t link with
    | None -> ()
    | Some ls -> ls.dequeued <- ls.dequeued + 1);
    check t t.delay
      (wait >= -.delay_eps)
      (fun () ->
        Printf.sprintf
          "flow %d seq %d at t=%.6f: dequeued %.9fs before it arrived at \
           link %d"
          pa.Packet.flow.(pkt) pa.Packet.seq.(pkt) now (-.wait) link)
  in
  let on_idle ~link ~now ~qlen =
    t.events <- t.events + 1;
    match link_state t link with
    | Some ls when ls.wc ->
        check t t.work_conservation (qlen = 0) (fun () ->
            Printf.sprintf
              "link %d (%s) went idle at t=%.6f with %d packets queued" link
              ls.l_name now qlen)
    | _ -> ()
  in
  let on_deliver ~link ~now (pkt : Packet.t) =
    t.events <- t.events + 1;
    (match link_state t link with
    | None -> ()
    | Some ls -> ls.delivered <- ls.delivered + 1);
    check t t.delay
      (pa.Packet.qdelay_total.(pkt) >= -.delay_eps)
      (fun () ->
        Printf.sprintf
          "flow %d seq %d at t=%.6f: delivered with negative accumulated \
           delay %.9f"
          pa.Packet.flow.(pkt) pa.Packet.seq.(pkt) now
          pa.Packet.qdelay_total.(pkt));
    let flow = pa.Packet.flow.(pkt) in
    if flow < Array.length t.bounds then
      match t.bounds.(flow) with
      | Some g when g.g_link = link ->
          check t t.delay_bound
            (pa.Packet.qdelay_total.(pkt) <= g.bound_s +. bound_eps)
            (fun () ->
              Printf.sprintf
                "flow %d seq %d at t=%.6f: queueing delay %.6fs exceeds the \
                 %s bound %.6fs"
                flow pa.Packet.seq.(pkt) now pa.Packet.qdelay_total.(pkt)
                (bound_label g.g_kind) g.bound_s)
      | _ -> ()
  in
  let on_drop ~link ~now ~cause (pkt : Packet.t) =
    t.events <- t.events + 1;
    (match link_state t link with
    | None -> ()
    | Some ls -> (
        match (cause : Recorder.cause) with
        | Recorder.Buffer -> ls.drops_buffer <- ls.drops_buffer + 1
        | Recorder.Down -> ls.drops_down <- ls.drops_down + 1
        | Recorder.Wire -> ls.drops_wire <- ls.drops_wire + 1
        | Recorder.No_cause -> ()));
    (* A buffer rejection still passed the edge policer, so it consumed
       tokens; debit the model on this path too. *)
    if cause = Recorder.Buffer then on_arrival t pa ~link ~now pkt
  in
  Tap.make ~on_enqueue ~on_dequeue ~on_idle ~on_deliver ~on_drop ()

let attach_link t link =
  register_qdisc t ~link:(Ispn_sim.Link.id link) (Ispn_sim.Link.qdisc link);
  Ispn_sim.Link.add_tap link (tap t)

(* {2 Report-time checks and the summary} *)

type inv_summary = { inv_name : string; inv_checks : int; inv_violations : int }

type summary = {
  events : int;
  checks : int;
  violations : int;
  invariants : inv_summary list;
  samples : string list;  (* oldest first *)
}

let final_link_checks t ls =
  let backlog = ls.l_qdisc.Qdisc.length () in
  check t t.conservation
    (ls.accepted - ls.dequeued = backlog)
    (fun () ->
      Printf.sprintf
        "link %d (%s): accepted %d - dequeued %d <> %d still queued" ls.l_id
        ls.l_name ls.accepted ls.dequeued backlog);
  let in_flight = ls.dequeued - ls.delivered - ls.drops_down - ls.drops_wire in
  check t t.conservation (in_flight >= 0) (fun () ->
      Printf.sprintf
        "link %d (%s): dequeued %d < delivered %d + dropped %d after dequeue"
        ls.l_id ls.l_name ls.dequeued ls.delivered
        (ls.drops_down + ls.drops_wire))

let final_pool_checks t (link, p) =
  let in_use = Qdisc.pool_in_use p in
  check t t.pool
    (Qdisc.pool_takes p = Qdisc.pool_releases p + in_use)
    (fun () ->
      Printf.sprintf "link %d: %d takes <> %d releases + %d in use" link
        (Qdisc.pool_takes p) (Qdisc.pool_releases p) in_use);
  check t t.pool (in_use >= 0) (fun () ->
      Printf.sprintf "link %d: pool in_use %d negative" link in_use);
  check t t.pool
    (Qdisc.pool_hwm p <= Qdisc.pool_capacity p)
    (fun () ->
      Printf.sprintf "link %d: pool high-water %d above capacity %d" link
        (Qdisc.pool_hwm p) (Qdisc.pool_capacity p));
  match link_state t link with
  | None -> ()
  | Some ls ->
      check t t.pool
        (in_use = ls.l_qdisc.Qdisc.length ())
        (fun () ->
          Printf.sprintf
            "link %d (%s): pool holds %d buffers but the qdisc reports %d \
             packets (leak)"
            link ls.l_name in_use
            (ls.l_qdisc.Qdisc.length ()))

(* Soft-state leak accounting (DESIGN.md §9, "flow-state"): a book of
   reservations or slots must balance its cumulative counters — live =
   admitted - released, never negative — and report no bad releases.  A
   live count above the balance means a leaked record (a lost teardown
   nobody timed out); below it, a double release. *)
let final_flow_state_checks t f =
  let admitted = f.f_admitted () in
  let released = f.f_released () in
  let live = f.f_live () in
  check t t.flow_state (live >= 0) (fun () ->
      Printf.sprintf "%s: live count %d negative" f.f_label live);
  check t t.flow_state
    (admitted = released + live)
    (fun () ->
      Printf.sprintf "%s: %d admitted <> %d released + %d live (leak)"
        f.f_label admitted released live);
  match f.f_bad with
  | None -> ()
  | Some bad ->
      let n = bad () in
      check t t.flow_state (n = 0) (fun () ->
          Printf.sprintf "%s: %d bad releases" f.f_label n)

(* Packet-arena accounting since the baseline: every successful [make]
   must balance a [free] or a live handle, and no handle may be freed
   twice (DESIGN.md §9). *)
let final_arena_checks t =
  let b = t.arena_base in
  let c = Packet.pool_stats () in
  let d_takes = c.Packet.p_takes - b.Packet.p_takes in
  let d_releases = c.Packet.p_releases - b.Packet.p_releases in
  let d_bad = c.Packet.p_bad_frees - b.Packet.p_bad_frees in
  check t t.arena (d_bad = 0) (fun () ->
      Printf.sprintf "arena: %d frees of dead packet slots" d_bad);
  check t t.arena (d_releases <= d_takes) (fun () ->
      Printf.sprintf "arena: %d releases exceed %d takes" d_releases d_takes);
  check t t.arena
    (c.Packet.p_in_use = b.Packet.p_in_use + d_takes - d_releases)
    (fun () ->
      Printf.sprintf
        "arena: %d in use <> %d at baseline + %d takes - %d releases"
        c.Packet.p_in_use b.Packet.p_in_use d_takes d_releases);
  check t t.arena
    (c.Packet.p_hwm <= c.Packet.p_capacity)
    (fun () ->
      Printf.sprintf "arena: high-water %d above capacity %d" c.Packet.p_hwm
        c.Packet.p_capacity)

let finalize t =
  final_arena_checks t;
  let total_accepted = ref 0 and total_dequeued = ref 0 in
  let total_backlog = ref 0 and n_links = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some ls ->
          incr n_links;
          total_accepted := !total_accepted + ls.accepted;
          total_dequeued := !total_dequeued + ls.dequeued;
          total_backlog := !total_backlog + ls.l_qdisc.Qdisc.length ();
          final_link_checks t ls)
    t.links;
  List.iter (final_pool_checks t) (List.rev t.pools);
  List.iter (final_flow_state_checks t) (List.rev t.fstates);
  if !n_links > 0 then
    check t t.conservation
      (!total_accepted = !total_dequeued + !total_backlog)
      (fun () ->
        Printf.sprintf
          "network: %d accepted <> %d dequeued + %d queued across %d links"
          !total_accepted !total_dequeued !total_backlog !n_links);
  let invariants =
    List.map
      (fun c ->
        { inv_name = c.inv; inv_checks = c.checks; inv_violations = c.violations })
      (counters t)
  in
  let checks = List.fold_left (fun a i -> a + i.inv_checks) 0 invariants in
  let violations =
    List.fold_left (fun a i -> a + i.inv_violations) 0 invariants
  in
  {
    events = t.events;
    checks;
    violations;
    invariants;
    samples = List.rev t.samples;
  }

let footer_lines ~label s =
  let head =
    Printf.sprintf "[check] %s: %d events, %d checks, %d violations" label
      s.events s.checks s.violations
  in
  if s.violations = 0 then [ head ]
  else
    head
    :: List.filter_map
         (fun i ->
           if i.inv_violations = 0 then None
           else
             Some
               (Printf.sprintf "[check] %s:   %s: %d/%d checks violated" label
                  i.inv_name i.inv_violations i.inv_checks))
         s.invariants
    @ List.map (fun m -> Printf.sprintf "[check] %s:   !! %s" label m)
        s.samples
